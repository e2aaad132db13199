import hashlib

from thomplink import from_word, tait_graph
from thomplink.svg import direct_link_svg, tait_graph_svg, tree_pair_svg

X0_CLOSURE = [
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-88 -200 248 400" width="248" height="400">',
    '<line x1="20.0" y1="-40.0" x2="0.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="20.0" y1="-40.0" x2="40.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="50.0" y1="-80.0" x2="20.0" y2="-40.0" stroke="black" stroke-width="2"/>',
    '<line x1="50.0" y1="-80.0" x2="80.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="60.0" y1="40.0" x2="40.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="60.0" y1="40.0" x2="80.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="30.0" y1="80.0" x2="0.0" y2="0.0" stroke="black" stroke-width="2"/>',
    '<line x1="30.0" y1="80.0" x2="60.0" y2="40.0" stroke="black" stroke-width="2"/>',
    '<path d="M 20.0 -40.0 Q 20.0 0 30.0 80.0" fill="none" stroke="green" stroke-width="1.5"/>',
    '<path d="M 50.0 -80.0 Q 60.0 0 60.0 40.0" fill="none" stroke="green" stroke-width="1.5"/>',
    '<path d="M 50.0 -80.0 C -48.0 -80.0 -48.0 80.0 30.0 80.0" fill="none" stroke="green" stroke-width="1.5"/>',
    '</svg>',
]


def test_direct_link_svg_of_x0():
    # source tree first, each node after its subtrees, then one green
    # connector per leaf gap and the closure around the outside
    assert direct_link_svg(from_word("x0")).split("\n") == X0_CLOSURE


def test_svg_output_is_pinned():
    p = from_word("x0 x1 x0^-2 x2 x1^-1 x3^2")
    svgs = (tree_pair_svg(p), direct_link_svg(p), tait_graph_svg(tait_graph(p)))
    assert [hashlib.sha256(s.encode()).hexdigest() for s in svgs] == [
        "81a8bcee29336375522e66a3f4c4a883dbf447d5cdaf738c605250086621e1f5",
        "7f9af67a5ac8968ffc40bb1935acc39f117f9ebf0bd82c5b316049f39e8d587b",
        "e23111ca4a97f60abda0a11c40b2422d01262612ebe5fd39b9e735b0fd094914",
    ]
