"""Fuzz the CLI in-process over argv: every request ends with exit 0, 2 or 3
and no traceback, and a JSON request that succeeds prints JSON.  Degree
lists come in the comma form, as JSON arrays and malformed; no instance has
more than 8 degrees of at most 512, so each stays under the guards (sum at
most 2^12) and no example starts a long run."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from greedymax.cli import main

degree = st.integers(0, 512)


def graphical(vals):
    """vals with its maximum lowered to the sum of the others, and then by
    one more if the sum is odd: a graphical sequence."""
    vals = sorted(vals)
    if vals:
        vals[-1] = min(vals[-1], sum(vals[:-1]))
        vals[-1] -= sum(vals) % 2
    return vals


# small degrees too, as pseudo-reductions refuses sums above 26
lists = st.one_of(st.lists(st.integers(0, 6), max_size=8), st.lists(degree, max_size=8))
lists = st.one_of(lists, lists.map(graphical))
comma_form = lists.map(lambda vals: ",".join(map(str, vals)))
json_form = st.tuples(lists, st.sampled_from(["", " ", "\n"])).map(
    lambda drawn: json.dumps(drawn[0]).replace(", ", "," + drawn[1])
)
# tokens that are not JSON integers, or not integers at all
bad_token = st.sampled_from(
    ["", " ", "-1", "-512", "a", "1.5", "1e3", "0x1", "true", "null", '"1"', "[1]", "[", "]", "--1"]
)
malformed = st.tuples(
    st.lists(st.one_of(degree.map(str), bad_token), min_size=1, max_size=8),
    st.sampled_from([",", ";", " ", ",,"]),
    st.booleans(),
).map(lambda drawn: ("[%s]" if drawn[2] else "%s") % drawn[1].join(drawn[0]))

SUBCOMMANDS = (["bound"], ["omega"], ["trace"], ["ferrers"], ["lab", "pseudo-reductions"],
               ["loops"], ["loops", "--construct"])


@settings(max_examples=250, deadline=None)
@given(
    fmt=st.sampled_from(["text", "json"]),
    cmd=st.sampled_from(SUBCOMMANDS),
    k=st.one_of(st.integers(0, 8), st.integers(0, 600)),
    degrees=st.one_of(comma_form, json_form, malformed),
)
def test_cli_exits_cleanly(fmt, cmd, k, degrees):
    argv = ["--format", fmt, *cmd, "--k", str(k), "--degrees", degrees]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    # a Ferrers diagram is its output in every format
    if code == 0 and fmt == "json" and cmd != ["ferrers"]:
        json.loads(out.getvalue())
