"""The contract every line-oriented input shares: blank lines and lines whose
first token starts with `c` are skipped, and a bad 1-based id names its line.
"""

import pytest

from powerdom.cli import main
from powerdom.generators import MinRepInstance, parse_minrep
from powerdom.graphs import GraphFormatError, parse_graph
from powerdom.orientation import parse_orientation
from powerdom.planar import parse_levels
from powerdom.treedecomp import parse_td

COMMENTS = ("c", "c note", "comment x")

# name -> (parser, a valid input, lines that must come before an id line,
# an id line with {} for the id, the largest valid id).
FORMATS = {
    "graph": (parse_graph, "p edge 3 2\ne 1 2\ne 2 3\n", "p edge 3 2", "e 1 {}", 3),
    "td-bag": (parse_td, "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n", "s td 2 2 3", "b 1 1 {}", 3),
    "td-edge": (parse_td, "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n", "s td 2 2 3", "1 {}", 2),
    "levels": (lambda text: parse_levels(text, 2), "p edge 2 1\ne 1 2\nl 1 1\nl 2 2\n",
               "p edge 2 1", "l {} 1", 2),
    "orientation": (lambda text: parse_orientation(text, 3, 2),
                    "d 1 2\nd 2 3\nt 1 0\nt 2 1\nt 3 2\n", "t 1 0", "d 1 {}", 3),
    "minrep": (parse_minrep, "minrep 1 2 1 2\ne 1 1\ne 2 2\n", "minrep 1 2 1 2", "e 1 {}", 2),
    "targets": (None, "1\n3\n", "1 2", "3 {}", 3),
}


class CliFailed(Exception):
    pass


@pytest.fixture(params=list(FORMATS))
def fmt(request, tmp_path, capsys):
    """A FORMATS entry.  For `targets` the parser runs `solve --targets FILE`
    on a path on 3 nodes and returns its output or raises with its error."""
    parse, *rest = FORMATS[request.param]
    if parse is None:
        graph = tmp_path / "p3.gr"
        graph.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        targets = tmp_path / "targets"

        def parse(text):
            targets.write_text(text)
            code = main(["solve", "--ell", "1", "--targets", str(targets), str(graph)])
            captured = capsys.readouterr()
            if code:
                raise CliFailed(captured.err)
            return captured.out

    return parse, *rest


def commented(text: str) -> str:
    return "".join(f"{c}\n" for line in text.splitlines() for c in (*COMMENTS, line))


def test_comment_lines_are_skipped(fmt):
    parse, plain, *_ = fmt
    assert parse(commented(plain)) == parse(plain)


@pytest.mark.parametrize("bad", ["x", "0", "max+1"])
def test_bad_ids_name_their_line(fmt, bad):
    parse, _, head, line, largest = fmt
    token = str(largest + 1) if bad == "max+1" else bad
    text = commented(head) + line.format(token) + "\n"
    lineno = len(text.splitlines())
    with pytest.raises((GraphFormatError, CliFailed)) as exc:
        parse(text)
    assert f"line {lineno}: " in str(exc.value)
    assert (repr(token) if bad == "x" else f"1..{largest}") in str(exc.value)
    if isinstance(exc.value, GraphFormatError):
        assert exc.value.line == lineno


# Every refusal of the readers that the id contract above does not reach:
# (parser, input, a fragment of the message, the 1-based line it names or
# None).  Refusals of a whole input, made once every line has been read,
# name no line.
REFUSALS = [
    pytest.param(parse_graph, "p edge 2 1\ne 1 2 2\n", "edge line must be 'e <u> <v>'", 2,
                 id="graph-edge-arity"),
    pytest.param(parse_graph, "p edge 2 1\ne 2 2\n", "self-loop", 2, id="graph-self-loop"),
    pytest.param(parse_graph, "p edge 2 0\np edge 2 0\n", "duplicate problem line", 2,
                 id="graph-second-problem-line"),
    pytest.param(parse_graph, "p graph 2 0\n", "problem line must be 'p edge <n> <m>'", 1,
                 id="graph-problem-line-shape"),
    pytest.param(parse_graph, "p edge two 0\n", "non-integer counts in problem line", 1,
                 id="graph-non-integer-count"),
    pytest.param(parse_graph, "p edge 2 -1\n", "negative counts in problem line", 1,
                 id="graph-negative-count"),
    pytest.param(parse_td, "s td 1 1 1\ns td 1 1 1\n", "duplicate solution line", 2,
                 id="td-second-header"),
    pytest.param(parse_td, "s td 1 1\n", "header must be 's td <#bags> <width+1> <n>'", 1,
                 id="td-header-shape"),
    pytest.param(parse_td, "s td one 1 1\n", "non-integer header fields", 1,
                 id="td-non-integer-header"),
    pytest.param(parse_td, "s td 1 1 1\nb 1 1\nb 1 1\n", "duplicate bag 1", 3,
                 id="td-duplicate-bag"),
    pytest.param(parse_td, "s td 1 1 1\nx 1 1\n", "unrecognized line 'x 1 1'", 2,
                 id="td-unknown-line"),
    pytest.param(parse_td, "1 2\n", "tree edge before header", 1, id="td-edge-before-header"),
    pytest.param(parse_td, "c nothing\n", "missing 's td' header line", None,
                 id="td-missing-header"),
    pytest.param(parse_td, "s td 2 1 1\nb 1 1\nb 2 1\n2 2\n", "bad tree edge (2, 2)", None,
                 id="td-loop-edge"),
    pytest.param(parse_minrep, "minrep 1 1 1 1\nminrep 1 1 1 1\n", "duplicate header line", 2,
                 id="minrep-second-header"),
    pytest.param(parse_minrep, "minrep 1 x 1 1\n", "non-integer group counts", 1,
                 id="minrep-non-integer-header"),
    pytest.param(parse_minrep, "minrep 1 1 1 1\ne 1\n", "edge line must be 'e <a> <b>'", 2,
                 id="minrep-edge-arity"),
    pytest.param(parse_minrep, "minrep 1 1 1 1\nf 1 1\n", "unknown line type 'f'", 2,
                 id="minrep-unknown-line"),
    pytest.param(parse_minrep, "c nothing\n", "missing 'minrep' header line", None,
                 id="minrep-missing-header"),
    pytest.param(parse_minrep, "minrep 1 0 1 1\n", "group counts and sizes must be >= 1", None,
                 id="minrep-empty-group"),
    pytest.param(parse_minrep, "minrep 1 1 1 1\ne 1 1\ne 1 1\n", "duplicate edge (1, 1)",
                 None, id="minrep-duplicate-edge"),
    pytest.param(lambda _: MinRepInstance(1, 1, 1, 1, ((1, 0),)), "", "edge (2, 1) out of range",
                 None, id="minrep-instance-edge-range"),
    pytest.param(lambda text: parse_levels(text, 1), "p edge 1 0\nl 1\n", "level line must be 'l <node> <level>'", 2,
                 id="levels-line-shape"),
    pytest.param(lambda text: parse_levels(text, 1), "p edge 1 0\nl 1 one\n", "non-integer level", 2,
                 id="levels-non-integer"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "t 3 5\nc x\nt 3 2\n",
                 "duplicate label for node 3", 3, id="orientation-second-label"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "t 2 inf\nt 2 inf\n",
                 "duplicate label for node 2", 2, id="orientation-second-inf-label"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "d 1 2\nd 1 2\n",
                 "edge (1, 2) directed twice", 2, id="orientation-repeated-directed-edge"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "d 2 3\nt 1 0\nd 2 1\nd 3 2\n",
                 "edge (2, 3) directed twice", 4, id="orientation-reversed-directed-edge"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "u 3 2\nu 2 3\n",
                 "edge (2, 3) undirected twice", 2, id="orientation-repeated-undirected-edge"),
    pytest.param(lambda text: parse_orientation(text, 3, 2), "u 2 1\nd 1 2\n",
                 "edge (1, 2) both directed and undirected", 2,
                 id="orientation-directed-and-undirected-edge"),
]


@pytest.mark.parametrize("parse, text, message, line", REFUSALS)
def test_refusals_name_their_reason_and_line(parse, text, message, line):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert message in str(exc.value)
    assert getattr(exc.value, "line", None) == line
