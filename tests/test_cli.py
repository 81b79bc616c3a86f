import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshift import Monomial, MonomialIdeal, betti_table, format_ideal, parse_ideal
from polyshift.cli import _multidegrees, build_parser, main
from util import RP2_DOC, RP2_TOTALS, child_env, ideal, mixed_degree_ideals


def cycle_doc(n):
    """The edge ideal of the n-cycle, [x1*x2, ..., xn*x1]."""
    return "[" + ", ".join(f"x{i}*x{i % n + 1}" for i in range(1, n + 1)) + "]"


CYCLE5 = cycle_doc(5)
WIDE_CYCLE5 = "[x1*x15, x15*x29^2147483647, x29*x43, x43*x57, x57*x1] n=70"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# Exact `soc --json` stdout.  `soc` prints the colon route under routes.colon
# and checks it against the other routes, so these bytes pin the colon socle.
# The entries after the first three cover the windowed families (Borel,
# Veronese and PLP types, and powers), taken before Borel ideals were read
# as prefix-sum windows; the non-basic PLP type pins the skipped closed
# form.  The multi-generator Borel power differs from its bytes of that time
# only in routes.closed-form, which was skipped before powers were read as
# windows.
SOC_JSON_PINS = {
    '{type:lp, alpha:[1,3], beta:[4,5]}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": \\"lp\\", '
        '\\"alpha\\": [1, 3], \\"beta\\": [4, 5], \\"n\\": 5}", "input": "[x1*x3, '
        'x1*x4, x1*x5, x2*x3, x2*x4, x2*x5, x3^2, x3*x4, x3*x5, x4^2, x4*x5] n=5", '
        '"intersection_graph": {"components": 1, "connected": true, '
        '"covers_variables": true, "edges": [[1, 2]], "vertices": 2}, '
        '"max_pd": true, "n": 5, "route": "exchange-formula", '
        '"routes": {"closed-form": {"gens": ["x3", "x4"], "n": 5}, '
        '"colon": {"gens": ["x3", "x4"], "n": 5}, '
        '"exchange-formula": {"gens": ["x3", "x4"], "n": 5}}, '
        '"socle": {"gens": ["x3", "x4"], "n": 5}, '
        '"spanning_tree_equals_socle": true, '
        '"spanning_tree_socle": {"gens": ["x3", "x4"], "n": 5}, '
        '"top_shift": {"gens": ["x1*x2*x3^2*x4*x5", "x1*x2*x3*x4^2*x5"], "n": 5}, '
        '"variable_order": "x1>x2>x3>x4>x5", "witness": "x3*x5"}\n'
    ),
    '{type:transversal, sets:[[1,3],[2,4]], n:4}': (
        '{"agreement": true, "command": "soc", '
        '"family": "{\\"type\\": \\"transversal\\", \\"sets\\": [[1, 3], [2, 4]], '
        '\\"n\\": 4}", "input": "[x1*x2, x1*x4, x2*x3, x3*x4] n=4", '
        '"intersection_graph": {"components": 2, "connected": false, '
        '"covers_variables": true, "edges": [], "vertices": 2}, '
        '"max_pd": false, "n": 4, "route": "exchange-formula", '
        '"routes": {"closed-form": {"skipped": "no closed-form socle for family '
        'tag \'transversal\'; use socle_colon"}, '
        '"colon": {"gens": [], "n": 4}, "exchange-formula": {"gens": [], "n": 4}}, '
        '"socle": {"gens": [], "n": 4}, "spanning_tree_equals_socle": true, '
        '"spanning_tree_socle": {"gens": [], "n": 4}, "top_shift": {"gens": [], '
        '"n": 4}, "variable_order": "x1>x2>x3>x4", "witness": null}\n'
    ),
    '[x1, x2, x3]': (
        '{"agreement": true, "command": "soc", "input": "[x1, x2, x3] n=3", '
        '"max_pd": true, "n": 3, "route": "exchange-formula", '
        '"routes": {"colon": {"gens": ["1"], "n": 3}, '
        '"exchange-formula": {"gens": ["1"], "n": 3}}, "socle": {"gens": ["1"], '
        '"n": 3}, "top_shift": {"gens": ["x1*x2*x3"], "n": 3}, '
        '"variable_order": "x1>x2>x3", "witness": "x3"}\n'
    ),
    '{type:borel, gens:[x2*x3], n:3}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"borel\\", \\"gens\\": [\\"x2*x3\\"], \\"n\\": 3}", "input": '
        '"[x1^2, x1*x2, x1*x3, x2^2, x2*x3] n=3", "max_pd": true, "n": 3, '
        '"route": "exchange-formula", "routes": {"closed-form": {"gens": '
        '["x1", "x2"], "n": 3}, "colon": {"gens": ["x1", "x2"], "n": 3}, '
        '"exchange-formula": {"gens": ["x1", "x2"], "n": 3}}, "socle": '
        '{"gens": ["x1", "x2"], "n": 3}, "top_shift": {"gens": '
        '["x1^2*x2*x3", "x1*x2^2*x3"], "n": 3}, "variable_order": '
        '"x1>x2>x3", "witness": "x1*x3"}\n'
    ),
    '{type:borel, gens:[x1*x3, x2^2], n:3}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"borel\\", \\"gens\\": [\\"x1*x3\\", \\"x2^2\\"], \\"n\\": 3}", '
        '"input": "[x1^2, x1*x2, x1*x3, x2^2] n=3", "max_pd": true, "n": 3, '
        '"route": "exchange-formula", "routes": {"closed-form": {"gens": '
        '["x1"], "n": 3}, "colon": {"gens": ["x1"], "n": 3}, '
        '"exchange-formula": {"gens": ["x1"], "n": 3}}, "socle": {"gens": '
        '["x1"], "n": 3}, "top_shift": {"gens": ["x1^2*x2*x3"], "n": 3}, '
        '"variable_order": "x1>x2>x3", "witness": "x1*x3"}\n'
    ),
    '{type:power, base:{type:borel, gens:[x1*x2], n:2}, k:2}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"power\\", \\"base\\": {\\"type\\": \\"borel\\", \\"gens\\": '
        '[\\"x1*x2\\"], \\"n\\": 2}, \\"k\\": 2}", "input": "[x1^4, x1^3*x2, '
        'x1^2*x2^2] n=2", "max_pd": true, "n": 2, "route": '
        '"exchange-formula", "routes": {"closed-form": {"gens": ["x1^3", '
        '"x1^2*x2"], "n": 2}, "colon": {"gens": ["x1^3", "x1^2*x2"], "n": '
        '2}, "exchange-formula": {"gens": ["x1^3", "x1^2*x2"], "n": 2}}, '
        '"socle": {"gens": ["x1^3", "x1^2*x2"], "n": 2}, "top_shift": '
        '{"gens": ["x1^4*x2", "x1^3*x2^2"], "n": 2}, "variable_order": '
        '"x1>x2", "witness": "x1^3*x2"}\n'
    ),
    '{type:power, base:{type:borel, gens:[x1*x3, x2^2], n:3}, k:2}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"power\\", \\"base\\": {\\"type\\": \\"borel\\", \\"gens\\": '
        '[\\"x1*x3\\", \\"x2^2\\"], \\"n\\": 3}, \\"k\\": 2}", "input": '
        '"[x1^4, x1^3*x2, x1^3*x3, x1^2*x2^2, x1^2*x2*x3, x1^2*x3^2, '
        'x1*x2^3, x1*x2^2*x3, x2^4] n=3", "max_pd": true, "n": 3, "route": '
        '"exchange-formula", "routes": {"closed-form": {"gens": ["x1^3", '
        '"x1^2*x2", "x1^2*x3", "x1*x2^2"], "n": 3}, '
        '"colon": {"gens": ["x1^3", "x1^2*x2", "x1^2*x3", "x1*x2^2"], "n": '
        '3}, "exchange-formula": {"gens": ["x1^3", "x1^2*x2", "x1^2*x3", '
        '"x1*x2^2"], "n": 3}}, "socle": {"gens": ["x1^3", "x1^2*x2", '
        '"x1^2*x3", "x1*x2^2"], "n": 3}, "top_shift": {"gens": '
        '["x1^4*x2*x3", "x1^3*x2^2*x3", "x1^3*x2*x3^2", "x1^2*x2^3*x3"], '
        '"n": 3}, "variable_order": "x1>x2>x3", "witness": "x1^3*x3"}\n'
    ),
    '{type:veronese, b:[1,2,1], d:2}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"veronese\\", \\"b\\": [1, 2, 1], \\"d\\": 2}", "input": "[x1*x2, '
        'x1*x3, x2^2, x2*x3] n=3", "max_pd": true, "n": 3, "route": '
        '"exchange-formula", "routes": {"closed-form": {"gens": ["x2"], "n": '
        '3}, "colon": {"gens": ["x2"], "n": 3}, "exchange-formula": {"gens": '
        '["x2"], "n": 3}}, "socle": {"gens": ["x2"], "n": 3}, "top_shift": '
        '{"gens": ["x1*x2^2*x3"], "n": 3}, "variable_order": "x1>x2>x3", '
        '"witness": "x2*x3"}\n'
    ),
    '{type:plp, a:[0,0,0], b:[2,1,2], alpha:[0,1,3], beta:[2,2,3]}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"plp\\", \\"a\\": [0, 0, 0], \\"b\\": [2, 1, 2], \\"alpha\\": [0, '
        '1, 3], \\"beta\\": [2, 2, 3]}", "input": "[x1^2*x3, x1*x2*x3, '
        'x1*x3^2, x2*x3^2] n=3", "max_pd": true, "n": 3, "route": '
        '"exchange-formula", "routes": {"closed-form": {"gens": ["x1*x3"], '
        '"n": 3}, "colon": {"gens": ["x1*x3"], "n": 3}, "exchange-formula": '
        '{"gens": ["x1*x3"], "n": 3}}, "socle": {"gens": ["x1*x3"], "n": 3}, '
        '"top_shift": {"gens": ["x1^2*x2*x3^2"], "n": 3}, "variable_order": '
        '"x1>x2>x3", "witness": "x1*x3^2"}\n'
    ),
    '{type:plp, a:[1,0,0], b:[2,1,2], alpha:[1,1,3], beta:[2,2,3]}': (
        '{"agreement": true, "command": "soc", "family": "{\\"type\\": '
        '\\"plp\\", \\"a\\": [1, 0, 0], \\"b\\": [2, 1, 2], \\"alpha\\": [1, '
        '1, 3], \\"beta\\": [2, 2, 3]}", "input": "[x1^2*x3, x1*x2*x3, '
        'x1*x3^2] n=3", "max_pd": true, "n": 3, "route": "exchange-formula", '
        '"routes": {"closed-form": {"skipped": "closed-form socle covers '
        'basic PLP types only; use socle_colon"}, "colon": {"gens": '
        '["x1*x3"], "n": 3}, "exchange-formula": {"gens": ["x1*x3"], "n": '
        '3}}, "socle": {"gens": ["x1*x3"], "n": 3}, "top_shift": {"gens": '
        '["x1^2*x2*x3^2"], "n": 3}, "variable_order": "x1>x2>x3", "witness": '
        '"x1*x3^2"}\n'
    ),
}

# sha256 of the exact `hs --all --route all --json` stdout for the two README
# inputs, the 5-cycle (no linear quotients: the search ends in "none" and only
# the oracle runs) and a mixed-degree ideal (the distance route is skipped).
# The bytes pin the certificate, the search and the distance route together.
HS_JSON_PINS = {
    "{type:lp, alpha:[1,3], beta:[4,5]}":
        "4fda791c3a3de21afd7f0e90bc5730f802604ef57535fea137bbc18fe475ba24",
    "[x2*x4, x1*x2, x1*x3]":
        "f58cd1636b0fdceceb4546d927c64887cd645ee5dcd6d58a649c38709d1f573e",
    CYCLE5:
        "34970a45b2dffe00779b6a781adb5a3aa5fdcf87ecdf8c585cc77ffa8dc85133",
    "[x1^2, x1*x2, x2^3, x2^2*x3] n=3":
        "cfa48ba4bd5f20246a04105a8fbe6f9f94028ced262a53468ce4822c5adf37fb",
}


# sha256 of the exact `betti --json` stdout, keyed by the input and the
# options after --json.  The first three are of the per-frame oracle, before
# frames were batched and their homology memoized: the 5-cycle, a
# mixed-degree ideal and a Veronese document (58 generators, 338 entries).
# The fourth, taken before the lattice was packed into words, spreads a
# 5-cycle over 70 variables with one exponent at 2^31 - 1, so every one of
# its 70 guard-bit fields takes 32 bits, a word of its own.  The rest were
# taken while table entries were still Monomials: the RP^2 ideal over F_2,
# whose multidegree x1*...*x6 carries indices 2 and 3, the zero ideal, and
# the unit ideal in three variables and in none.
BETTI_JSON_PINS = {
    (CYCLE5, ()):
        "82dbb1d18c57f758ab4de1c8a0f4e31ead942d16cafc7a0da45190f32907f5a4",
    ("[x1^2, x1*x2, x2^3, x2^2*x3] n=3", ()):
        "8b9a7940af6304dc332a624b8390d2928939e89c9136fb7e67fb767abe2dee90",
    ("{type:veronese, b:[2, 3, 4, 3, 2], d:4}", ()):
        "eb47911c6bdf5392ef456183e4a1d3629208d1a4f125202a30c981d06072d08f",
    (WIDE_CYCLE5, ()):
        "405bca76a31d37ddabdf1ab05af5a884d843dfd7d8bb80a5f4ae8a793e0fa526",
    (RP2_DOC, ("--prime", "2")):
        "80236baa0af1bec6576895c32320195715cc0934fd6b4e284c4edcca6cb3d798",
    ("[] n=3", ()):
        "039bcf3595bb7bd11b987d2919c3c80d42943f6c714c00c8f3587eb47ad4796a",
    ("[1] n=3", ()):
        "4675468bcbb82f370db5ab6df2f51efa441660c39cf91dd17787f639e8b5f62f",
    ("[1] n=0", ()):
        "9675f6c8acec8b22c5d4e82eef3e4e165434f6b137d23e9c2d2005f1ba67f96d",
}


# sha256 of the exact `check --property P --json` stdout for every property,
# taken before the colon steps and exchange checks shared one bitset table:
# the README LP example, the trio counterexample, the 5-cycle (the search
# ends in "none"), a mixed-degree ideal, and an ideal no lex order certifies
# whose admissible order the search finds only after backtracking.
CHECK_JSON_PINS = {
    "{type:lp, alpha:[1,3], beta:[4,5]}": {
        "polymatroidal":
            "73608e941b24032eb45a01a29b6d1bdf96b1551a3690a715f74ee20ca264d0e2",
        "strong-exchange":
            "6fc0aa7258d2892c5342802c63ba37b05c49a11240ce7e968911b8524a577af2",
        "matroidal":
            "87f46ea673e878fb6f4026ebbe716481a1269a375b7b239269f4329389cb20cb",
        "strongly-stable":
            "5092705349dd3a405d1899e91a44843de8111134e3daa7c9ff2b6a9b91622b96",
        "linear-quotients":
            "fc50c6b6bc502cc03566a20f3893874dffa446f564930fdd9a8bbf647aeee3f2",
    },
    "[x2*x4, x1*x2, x1*x3]": {
        "polymatroidal":
            "822879f12f4575f131e92dbfafaa617449fbb69af0bb4375432b70ce9e24bb91",
        "strong-exchange":
            "7cabef83761759eecaabb723e93c1c3c85cfad06d9eb0831c5bb48ecf2411a87",
        "matroidal":
            "28c2558ed2b41a8db35493d9ccfdb547411e2e523636148284393560095fdf73",
        "strongly-stable":
            "09a32af5663d1c5753f6df51d88c2bb1ee29019be26f578ff45cce9427d231ce",
        "linear-quotients":
            "8f159fd0f096f5e42388766b0f2da7914f13618f422c13bbac1bac5d23fb5898",
    },
    CYCLE5: {
        "polymatroidal":
            "2f8c0003c294c0e1d216cb4562ffdb59eb7140e957cb2ba8702fd90c81d94ad1",
        "strong-exchange":
            "727efd79e212174c27bece3146dde3b8d912a64f051c292737ac79d578e62665",
        "matroidal":
            "fab8b527fc9c7de7761c6af767d4e2c9ee7ed47c13f9cd41dd9e61da2c9271e9",
        "strongly-stable":
            "f938021a61d38ac961f466b592da8a711bc5addb8f0cbdb7391b489c22e36abb",
        "linear-quotients":
            "6095777108790eab1079dd763c8197b27e78a96dc2c17154b61c456f2430dd52",
    },
    "[x1^2, x1*x2, x2^3, x2^2*x3] n=3": {
        "polymatroidal":
            "df351ef51af5b9c59c6ef22765012897a11439efc7228bfa054ec529a65472b9",
        "strong-exchange":
            "e5576296d84f57d58747799418bf4b7fb9943b16f149cbf1e24b5af9996ede58",
        "matroidal":
            "81dba8c78687e0a8369a1bfcb66e4670b4c73c6ac4ee63a38fbf538faa7096ea",
        "strongly-stable":
            "b6dbc312ebde298a1e28108685b92b19eee23ee7dd9c31bc629e5d88f5d5aa14",
        "linear-quotients":
            "b750e4c4367263d776cd29c19bce947785b9d6e66af6b3c24832be6d19ad0339",
    },
    "[x1^2*x2^2, x1^2*x3^2, x2*x3]": {
        "polymatroidal":
            "970321cf5378d586f24d40bb5dede163995d6f692f0bfa4b1b6017b777d26c89",
        "strong-exchange":
            "2fd02299ebff99c1ba96026ae708fc214ce6548bd0a28bedab94682695c70801",
        "matroidal":
            "819a3af215283d4f9bc71249445508a2892a0154a110a415875e1b44c742f059",
        "strongly-stable":
            "224152a4ffa5537e33e2df27771ee2e98be5064c4cbf85e26aac0aebd0ece444",
        "linear-quotients":
            "e985c50450b8bb8eb52a63275f6cdb49628fcc2920284dbc6e53e7e405e4665e",
    },
}


class TestHsCommand:
    @pytest.mark.parametrize(
        "text", list(HS_JSON_PINS), ids=["lp", "trio", "cycle5", "mixed-degree"]
    )
    def test_json_bytes_pinned(self, text, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(
            ["hs", "--input", path, "--all", "--route", "all", "--json"], capsys
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HS_JSON_PINS[text]

    def test_all_routes_agree_on_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        code, out, _ = run_cli(["hs", "--input", path, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["agreement"] is True
        assert report["pd"] == 1
        cert = report["routes"]["certificate"]["shifts"]
        assert cert["1"] == ["x1*x2*x3", "x1*x2*x4"]
        assert cert["2"] == []

    def test_single_level(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, _ = run_cli(
            ["hs", "--input", path, "-j", "4", "--route", "certificate", "--json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        shifts = report["routes"]["certificate"]["shifts"]
        assert shifts["4"] == ["x1*x2*x3^2*x4*x5", "x1*x2*x3*x4^2*x5"]

    @pytest.mark.parametrize("flags", [["-j", "1", "--all"], ["--all", "-j", "1"]])
    def test_single_level_and_all_are_exclusive(self, flags, tmp_path, capsys):
        # the pair once printed every level and dropped -j without a word
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, err = run_cli(["hs", "--input", path, *flags, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: polyshift hs ")
        assert "not allowed with argument" in err

    def test_distance_route_skips_mixed_degrees(self, tmp_path, capsys):
        path = write(tmp_path, "mixed.txt", "[x1, x2*x3] n=3")
        code, out, _ = run_cli(
            ["hs", "--input", path, "--route", "all", "--json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["routes"]["distance"]["status"] == "skipped"
        assert "equigenerated" in report["routes"]["distance"]["reason"]
        assert report["routes"]["oracle"]["status"] == "ok"

    def test_oracle_route_alone_on_non_quotients_ideal(self, tmp_path, capsys):
        path = write(tmp_path, "nolq.txt", "[x1*x2, x3*x4]")
        code, out, _ = run_cli(
            ["hs", "--input", path, "--route", "oracle", "--json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["routes"]["oracle"]["status"] == "ok"
        assert report["routes"]["oracle"]["shifts"]["1"] == ["x1*x2*x3*x4"]
        assert "certificate" not in report["routes"]

    def test_certificate_route_skips_without_order(self, tmp_path, capsys):
        path = write(tmp_path, "nolq.txt", "[x1*x2, x3*x4]")
        code, out, _ = run_cli(
            ["hs", "--input", path, "--route", "certificate", "--json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["routes"]["certificate"]["status"] == "skipped"
        assert "no admissible order" in report["routes"]["certificate"]["reason"]

    def test_custom_order(self, tmp_path, capsys):
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        code, out, _ = run_cli(
            ["hs", "--input", path, "--order", "x2>x1>x3>x4", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["variable_order"] == "x2>x1>x3>x4"

    def test_note_when_lex_order_fails(self, tmp_path, capsys):
        # lex fails here and the order search certifies another order
        path = write(tmp_path, "nolex.txt", "[x1*x3, x2*x4, x3*x4]")
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["agreement"] is True and report["pd"] == 1
        entry = report["routes"]["certificate"]
        assert entry["status"] == "ok"
        assert entry["note"] == (
            "lex order under the given variable order failed; "
            "found another admissible order"
        )
        assert entry["shifts"]["1"] == ["x1*x3*x4", "x2*x3*x4"]

    @pytest.mark.parametrize(
        "text, ran",
        [
            ("{type:lp, alpha:[1,3], beta:[4,5]}", ["certificate", "distance", "oracle"]),
            (CYCLE5, ["oracle"]),
            ("[x1^2, x1*x2, x2^3, x2^2*x3] n=3", ["certificate", "oracle"]),
        ],
        ids=["lp", "cycle5", "mixed-degree"],
    )
    def test_timings_name_the_routes_that_ran(self, text, ran, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(
            ["hs", "--input", path, "--all", "--route", "all", "--json", "--timings"],
            capsys,
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        timings = report.pop("timings")
        assert sorted(timings) == ran
        assert all(isinstance(t, float) and t >= 0 for t in timings.values())
        # without the timings the report keeps its pinned bytes
        rest = json.dumps(report, sort_keys=True) + "\n"
        assert hashlib.sha256(rest.encode()).hexdigest() == HS_JSON_PINS[text]

    def test_disagreement_exit_code(self, monkeypatch, tmp_path, capsys):
        import polyshift.cli as cli_module
        from polyshift import MonomialIdeal

        monkeypatch.setattr(
            cli_module, "shifts_by_distance", lambda cert, j: MonomialIdeal(cert.ideal.n)
        )
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert code == 4
        report = json.loads(out)
        assert report["agreement"] is False
        assert report["routes"]["distance"]["shifts"]["0"] == []
        assert err == "internal disagreement: shift routes disagree; see report\n"

    def test_byte_reproducible(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        _, first, _ = run_cli(["hs", "--input", path, "--json"], capsys)
        _, second, _ = run_cli(["hs", "--input", path, "--json"], capsys)
        assert first == second


class TestSocCommand:
    def test_lp_example(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, _ = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["socle"]["gens"] == ["x3", "x4"]
        assert report["max_pd"] is True
        assert report["agreement"] is True
        assert report["top_shift"]["gens"] == [
            "x1*x2*x3^2*x4*x5",
            "x1*x2*x3*x4^2*x5",
        ]
        assert report["intersection_graph"]["connected"] is True
        assert report["spanning_tree_equals_socle"] is True

    def test_disconnected_transversal(self, tmp_path, capsys):
        path = write(
            tmp_path, "t.txt", "{type:transversal, sets:[[1,3],[2,4]], n:4}"
        )
        code, out, _ = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["socle"]["gens"] == []
        assert report["max_pd"] is False
        assert report["intersection_graph"]["components"] == 2

    def test_partial_cover_is_reported_without_warnings(self, tmp_path, capsys):
        # the uncovered variable once gave a UserWarning on stderr, twice
        path = write(tmp_path, "t.txt", "{type:transversal, sets:[[1,2]], n:3}")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["intersection_graph"]["covers_variables"] is False

    def test_power_past_the_product_cap_is_refused(self, tmp_path, capsys):
        # this once ran past 20 s forming the 2002 x 2002 pairs of the square
        sets = ", ".join(["[1,2,3,4,5,6]"] * 9)
        path = write(
            tmp_path, "pow.txt", f"{{type:power, base:{{type:transversal, sets:[{sets}]}}, k:99}}"
        )
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("resource cap: ideal power 99 of 2002 generators")
        assert "1000000 pairs" in err

    def test_long_power_past_the_product_cap_is_refused(self, tmp_path, capsys):
        # each square of this power stays under the cap, but the 20000 steps
        # together form about 4 * 10^8 pairs; this once ran past 8 s unrefused
        path = write(
            tmp_path, "pow.txt", "{type:power, base:{type:transversal, sets:[[1,2]]}, k:20000}"
        )
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 20
        assert (code, out) == (3, "")
        assert err.startswith("resource cap: ideal power 20000 of 2 generators")
        assert "1000000 pairs" in err

    def test_windowed_power_past_the_generator_cap_is_refused(self, tmp_path, capsys):
        # the power has far more than 10^5 generators; it once went to the
        # product cap with the 2002 x 2002 pairs of the square
        path = write(
            tmp_path, "pow.txt",
            "{type:power, base:{type:veronese, b:[9,9,9,9,9,9], d:9}, k:99}",
        )
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err == (
            "resource cap: windowed realization exceeds the cap of 100000 generators\n"
        )

    def test_long_windowed_power_is_answered(self, tmp_path, capsys):
        # the window scaled by 20000 holds 20001 monomials; by 19999 ideal
        # products the power once went past the product cap
        path = write(
            tmp_path, "pow.txt",
            "{type:power, base:{type:veronese, b:[9,9], d:1}, k:20000}",
        )
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 20
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["agreement"] is True
        assert report["input"].startswith("[x1^20000, x1^19999*x2, ")
        assert report["input"].count(",") == 20000
        closed = report["routes"]["closed-form"]
        assert closed == report["routes"]["colon"] == report["socle"]
        assert len(closed["gens"]) == 20000

    def test_power_exponent_past_the_supported_range(self, tmp_path, capsys):
        # like [x1^3000000000]; the power once took seconds of products to
        # reach the product cap
        path = write(
            tmp_path, "pow.txt",
            "{type:power, base:{type:veronese, b:[1], d:1}, k:3000000000}",
        )
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err == "invalid value: exponent 3000000000 exceeds the supported range\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{type:borel, gens:[x9^40], n:9}",
            "{type:veronese, b:[40,40,40,40,40,40,40,40,40], d:40}",
            "{type:lp, alpha:[1,1,1,1,1,1], beta:[20,20,20,20,20,20]}",
        ],
        ids=["borel", "veronese", "lp"],
    )
    def test_realization_past_the_generator_cap_is_refused(
        self, text, tmp_path, capsys
    ):
        # the Borel and Veronese realizations have C(48, 8), about 3.8 * 10^8,
        # generators and once ran past 10 s unrefused; the LP one has
        # C(25, 6) = 177100, which its interval products formed before the
        # socle routes ran past 600 s
        path = write(tmp_path, "big.txt", text)
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 20
        assert (code, out) == (3, "")
        assert err == (
            "resource cap: windowed realization exceeds the cap of 100000 generators\n"
        )

    def test_infeasible_plp_windows_end_quickly(self, tmp_path, capsys):
        # the windows admit no monomial; the enumeration once visited every
        # one of the 41^8 prefixes and ran past 10 s
        text = (
            "{type:plp, a:[0,0,0,0,0,0,0,0,0], b:[40,40,40,40,40,40,40,40,0], "
            "alpha:[0,0,0,0,0,0,0,0,40], beta:[39,39,39,39,39,39,39,39,40]}"
        )
        path = write(tmp_path, "plp.txt", text)
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 10
        assert (code, out) == (2, "")
        assert err == "precondition: the zero ideal has no socle\n"

    def test_lp_power_has_a_closed_form(self, tmp_path, capsys):
        # the closed form was once skipped for LP powers
        path = write(
            tmp_path, "lp2.txt",
            "{type:power, base:{type:lp, alpha:[1,3], beta:[4,5]}, k:2}",
        )
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["agreement"] is True
        closed = report["routes"]["closed-form"]
        assert closed == report["routes"]["colon"] == report["socle"]
        assert len(closed["gens"]) == 17 and closed["gens"][0] == "x1*x3^2"

    def test_disagreement_exit_code(self, monkeypatch, tmp_path, capsys):
        import polyshift.cli as cli_module
        from polyshift import MonomialIdeal

        monkeypatch.setattr(
            cli_module, "family_socle", lambda spec: MonomialIdeal(spec.n)
        )
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 4
        report = json.loads(out)
        assert report["agreement"] is False
        assert report["routes"]["closed-form"] == {"gens": [], "n": 5}
        assert err == "internal disagreement: socle routes disagree; see report\n"

    def test_redundant_borel_generator_keeps_routes_agreeing(self, tmp_path, capsys):
        # x1*x2 lies in the closure of x1; its closed form once read off
        # (x1) as the socle and the command exited 4
        path = write(tmp_path, "borel.txt", "{type:borel, gens:[x1, x1*x2], n:2}")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["agreement"] is True
        assert report["routes"]["closed-form"] == {"gens": [], "n": 2}

    def test_maximal_ideal(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", "[x1, x2, x3]")
        code, out, _ = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["socle"]["gens"] == ["1"]

    @pytest.mark.parametrize("text", sorted(SOC_JSON_PINS))
    def test_json_bytes_pinned(self, text, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        assert out == SOC_JSON_PINS[text]

    def test_non_equigenerated_is_precondition_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "[x1, x2*x3] n=3")
        code, _, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 2
        assert "precondition" in err

    @pytest.mark.parametrize(
        "text, expected",
        [
            # no full support: only the colon route runs
            (
                "[x2*x4, x1*x2, x1*x3] n=5",
                '{"agreement": null, "command": "soc", "input": "[x1*x2, x1*x3, '
                'x2*x4] n=5", "max_pd": false, "n": 5, "route": "colon", '
                '"routes": {"colon": {"gens": [], "n": 5}}, "socle": {"gens": [], '
                '"n": 5}, "top_shift": {"gens": [], "n": 5}, '
                '"variable_order": "x1>x2>x3>x4>x5", "witness": null}\n',
            ),
            # full support and linear quotients, but not in lex order, so
            # linearity comes from the order search
            (
                "[x1*x3, x2^2, x2*x3, x3^2] n=3",
                '{"agreement": null, "command": "soc", "input": "[x1*x3, x2^2, '
                'x2*x3, x3^2] n=3", "max_pd": true, "n": 3, "route": "colon", '
                '"routes": {"colon": {"gens": ["x3"], "n": 3}}, "socle": {"gens": '
                '["x3"], "n": 3}, "top_shift": {"gens": ["x1*x2*x3^2"], "n": 3}, '
                '"variable_order": "x1>x2>x3", "witness": "x3^2"}\n',
            ),
        ],
        ids=["partial-support", "betti-linearity"],
    )
    def test_colon_route_bytes_pinned(self, text, expected, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        assert out == expected

    @pytest.mark.parametrize(
        "text, tables_built",
        [("[x1*x3, x2^2, x2*x3, x3^2] n=3", 0), (CYCLE5, 1)],
        ids=["order-search-certifies", "cycle5"],
    )
    def test_table_only_when_no_order_certifies(
        self, text, tables_built, tmp_path, capsys, monkeypatch
    ):
        import polyshift.socle as socle_module

        tables = []

        def counted(*args, **kwargs):
            tables.append(args[0])
            return betti_table(*args, **kwargs)

        betti_table = socle_module.betti_table
        monkeypatch.setattr(socle_module, "betti_table", counted)
        path = write(tmp_path, "in.txt", text)
        run_cli(["soc", "--input", path, "--json"], capsys)
        assert len(tables) == tables_built

    def test_nonlinear_ideal_is_precondition_error(self, tmp_path, capsys):
        # the 5-cycle has no linear quotients and a nonlinear Betti table
        path = write(tmp_path, "c5.txt", CYCLE5)
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "precondition: socle is undefined: the ideal has no linear resolution\n"
        )

    def test_zero_ideal_is_refused(self, tmp_path, capsys):
        # this was once refused as "not equigenerated (degrees [])"
        path = write(tmp_path, "zero.txt", "[] n=3")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, out) == (2, "")
        assert err == "precondition: the zero ideal has no socle\n"

    def test_unit_ideal_without_variables_is_precondition_error(self, tmp_path, capsys):
        # this once ended in an IndexError traceback
        path = write(tmp_path, "unit0.txt", "[1] n=0")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert code == 2
        assert out == ""
        assert "precondition: the socle is undefined in a ring with no variables" in err
        assert "Traceback" not in err


class TestCheckCommand:
    @pytest.mark.parametrize("prop", list(CHECK_JSON_PINS[CYCLE5]))
    @pytest.mark.parametrize(
        "text",
        list(CHECK_JSON_PINS),
        ids=["lp", "trio", "cycle5", "mixed-degree", "backtracking"],
    )
    def test_json_bytes_pinned(self, text, prop, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(
            ["check", "--input", path, "--property", prop, "--json"], capsys
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == CHECK_JSON_PINS[text][prop]

    def test_strong_exchange_witness(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", "strong-exchange", "--json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["witness"] == ["x1*x3", "x2*x4", 3, 2]

    def test_polymatroidal(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", "polymatroidal", "--json"],
            capsys,
        )
        assert json.loads(out)["verdict"] is True

    def test_linear_quotients_none(self, tmp_path, capsys):
        path = write(tmp_path, "lq.txt", "[x1*x2, x3*x4]")
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", "linear-quotients", "--json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["status"] == "none"

    def test_linear_quotients_past_the_recursion_limit(self, tmp_path, capsys):
        # 1891 generators on 3 variables skip the lex sweep, so the order
        # comes from the backtracking search, which once recursed once per
        # generator and ended in a RecursionError
        path = write(tmp_path, "v.txt", "{type:veronese, b:[60,60,60], d:60}")
        code, out, err = run_cli(
            ["check", "--input", path, "--property", "linear-quotients", "--json"],
            capsys,
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] is True
        assert len(report["order"]) == 1891

    @pytest.mark.parametrize(
        "prop, text, witness",
        [
            (
                "polymatroidal",
                "[x1^2*x3, x1*x2^2, x2^2*x3, x2*x3^2] n=3",
                '["x1^2*x3", "x1*x2^2", 1]',
            ),
            (
                "strong-exchange",
                "[x1*x2*x3, x1*x2*x5, x1*x3*x4, x1*x3*x5, x1*x4*x5, x2*x3*x4, "
                "x2*x4*x5, x3*x4*x5] n=5",
                '["x1*x2*x3", "x1*x4*x5", 3, 4]',
            ),
            (
                "matroidal",
                "[x1*x2*x5, x1*x3*x4, x2*x3*x4, x3*x4*x5] n=5",
                '["x1*x2*x5", "x1*x3*x4", 2]',
            ),
        ],
        ids=["polymatroidal", "strong-exchange", "matroidal"],
    )
    def test_exchange_witness_bytes(self, tmp_path, capsys, prop, text, witness):
        # the first failing u has several failing (v, i[, j]): the report
        # names the first in generator order, then the smallest index
        path = write(tmp_path, "g.txt", text)
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", prop, "--json"], capsys
        )
        assert code == 0
        n = text.rsplit("n=", 1)[1]
        assert out == (
            f'{{"command": "check", "input": "{text}", "n": {n}, '
            f'"property": "{prop}", "verdict": false, "witness": {witness}}}\n'
        )

    @pytest.mark.parametrize(
        "prop, text, expected",
        [
            (
                "matroidal",
                "[x1^2, x2*x3] n=3",
                '"property": "matroidal", "reason": "not squarefree", '
                '"verdict": false, "witness": ["x1^2"]}',
            ),
            (
                "matroidal",
                "[x1, x2*x3] n=3",
                '"property": "matroidal", "reason": "not equigenerated", '
                '"verdict": false}',
            ),
            (
                "polymatroidal",
                "[x1, x2*x3] n=3",
                '"property": "polymatroidal", "reason": "not equigenerated", '
                '"verdict": false}',
            ),
        ],
        ids=["not-squarefree", "matroidal-mixed-degree", "polymatroidal-mixed-degree"],
    )
    def test_reason_bytes(self, tmp_path, capsys, prop, text, expected):
        path = write(tmp_path, "g.txt", text)
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", prop, "--json"], capsys
        )
        assert code == 0
        assert out == f'{{"command": "check", "input": "{text}", "n": 3, {expected}\n'

    def test_strongly_stable_witness(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "[x2] n=2")
        code, out, _ = run_cli(
            ["check", "--input", path, "--property", "strongly-stable", "--json"],
            capsys,
        )
        report = json.loads(out)
        assert report["verdict"] is False
        assert report["witness"] == ["x2", 2, 1]

    def test_strongly_stable_at_the_variable_cap(self, tmp_path, capsys):
        # (x1, ..., x500) has 124750 moves; testing each by a scan of the
        # generators was still running at 60 s
        text = "[" + ", ".join(f"x{i}" for i in range(1, 501)) + "]"
        path = write(tmp_path, "m500.txt", text)
        start = time.perf_counter()
        code, out, err = run_cli(
            ["check", "--input", path, "--property", "strongly-stable", "--json"],
            capsys,
        )
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] is True


@st.composite
def generator_lists(draw):
    """Ideals of one to eight generators in one to five variables, the
    exponents at most 3: equigenerated and mixed, redundant members too."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=8))
    return MonomialIdeal(n, [Monomial(g) for g in gens])


class TestBettiCommand:
    @pytest.mark.parametrize(
        "text, options",
        list(BETTI_JSON_PINS),
        ids=[
            "cycle5", "mixed-degree", "veronese", "wide-cycle5", "rp2-prime2",
            "zero", "unit", "unit-no-variables",
        ],
    )
    def test_json_bytes_pinned(self, text, options, tmp_path, capsys):
        path = write(tmp_path, "in.txt", text)
        code, out, err = run_cli(["betti", "--input", path, "--json", *options], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == BETTI_JSON_PINS[text, options]

    def test_trio_table(self, tmp_path, capsys):
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        code, out, _ = run_cli(["betti", "--input", path, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pd"] == 1
        assert report["totals"] == {"0": 3, "1": 2}
        assert report["max_pd"] is False

    @pytest.mark.parametrize(
        "text",
        [
            "{type:lp, alpha:[1,3], beta:[4,5]}",
            "[x2*x4, x1*x2, x1*x3] n=4",
            "[x1^2*x3, x1^2*x2, x1*x2*x3]",
            "[x1, x2, x3, x4]",
            "[x2, x4] n=4",
            "[1] n=3",
            cycle_doc(5),
            cycle_doc(6),
            cycle_doc(7),
        ],
        ids=[
            "lp-example", "trio", "degree-condition", "maximal-ideal",
            "partial-support", "unit", "cycle5", "cycle6", "cycle7",
        ],
    )
    def test_max_pd_comes_from_the_one_table(self, text, tmp_path, capsys, monkeypatch):
        from polyshift.oracle import _betti_rows
        from polyshift.socle import max_pd

        expected = max_pd(ideal(text))
        tables = []

        def counted(*args, **kwargs):
            tables.append(args[0])
            return _betti_rows(*args, **kwargs)

        # every module's name for the table engine, so a table built through
        # betti_table or socle counts too
        for name, module in list(sys.modules.items()):
            if name.startswith("polyshift") and module.__dict__.get("_betti_rows") is _betti_rows:
                monkeypatch.setattr(module, "_betti_rows", counted)
        path = write(tmp_path, "i.txt", text)
        code, out, _ = run_cli(["betti", "--input", path, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["max_pd"] is expected
        assert len(tables) == 1

    @pytest.mark.parametrize("prime", ["2305843009213693951", "4", "1", "abc"])
    def test_bad_modulus_exit_code(self, prime, tmp_path, capsys):
        # 2^61 - 1 overflowed int64 and gave the 5-cycle totals {0: 5, 1: 4}
        path = write(tmp_path, "c5.txt", CYCLE5)
        code, out, err = run_cli(
            ["betti", "--input", path, "--prime", prime, "--json"], capsys
        )
        assert code == 1
        assert out == ""
        assert "prime below 2^31" in err

    def test_largest_modulus(self, tmp_path, capsys):
        path = write(tmp_path, "c5.txt", CYCLE5)
        code, out, _ = run_cli(
            ["betti", "--input", path, "--prime", str(2**31 - 1), "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["totals"] == {"0": 5, "1": 5, "2": 1}

    @pytest.mark.parametrize("prime, totals", RP2_TOTALS, ids=["p2", "p3", "p32003"])
    def test_prime_reaches_the_table(self, prime, totals, tmp_path, capsys):
        path = write(tmp_path, "rp2.txt", RP2_DOC)
        code, out, err = run_cli(
            ["betti", "--input", path, "--prime", str(prime), "--json"], capsys
        )
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["prime"] == prime
        assert report["totals"] == {str(i): t for i, t in totals.items()}

    def test_lattice_cap_refused_early(self, tmp_path, capsys):
        # 5328 generators; the closure meets the cap of 2000 within a few steps
        path = write(tmp_path, "v38.txt", "{type:veronese, b:[3,3,3,3,3,3,3,3], d:9}")
        start = time.perf_counter()
        code, out, err = run_cli(
            ["betti", "--input", path, "--cap", "2000", "--json"], capsys
        )
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert "resource cap: lcm lattice exceeds the cap of 2000 points" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_exit_code(self, cap, tmp_path, capsys):
        # these once exited 3 with "lcm lattice exceeds the cap of -1 points"
        path = write(tmp_path, "c5.txt", CYCLE5)
        code, out, err = run_cli(
            ["betti", "--input", path, "--cap", cap, "--json"], capsys
        )
        assert code == 1
        assert out == ""
        assert f"invalid value: the lcm lattice cap must be at least 1, got {cap}" in err
        assert "Traceback" not in err

    def test_wide_frame_is_refused_before_its_face_rows(self, tmp_path, capsys):
        # the frame at x1*...*x40 once ended in a traceback asking numpy for
        # 128 GiB, as int64 face masks allowed 62 vertices
        import tracemalloc

        path = write(tmp_path, "wide.txt", "[" + "*".join(f"x{i}" for i in range(1, 41)) + "]")
        tracemalloc.start()
        try:
            code, out, err = run_cli(["betti", "--input", path, "--json"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("resource cap: upper Koszul frame at x1*x2*")
        assert "has 40 vertices; at most 26 are supported" in err
        assert peak < 1 << 20

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "lp.txt", "{type:lp, alpha:[1,3], beta:[4,5]}")
        code, _, err = run_cli(
            ["betti", "--input", path, "--cap", "3", "--json"], capsys
        )
        assert code == 3
        assert "resource cap" in err

    @settings(deadline=None, max_examples=80)
    @given(I=st.one_of(mixed_degree_ideals(), generator_lists()))
    def test_report_agrees_with_the_table(self, I, tmp_path_factory):
        # the report sorts, formats and sums the engine's rows; the table
        # keys the same entries by Monomial
        path = tmp_path_factory.mktemp("betti") / "in.txt"
        path.write_text(format_ideal(I), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["betti", "--input", str(path), "--json"]) == 0
        report = json.loads(out.getvalue())
        table = betti_table(I)
        # by index, then descending-lex in the exponents
        items = sorted(
            table.entries.items(), key=lambda kv: (kv[0][0], [-e for e in kv[0][1].exponents])
        )
        assert report["entries"] == [
            {"i": i, "multidegree": str(a), "rank": r} for (i, a), r in items
        ]
        assert report["totals"] == {str(i): t for i, t in table.totals().items()}
        assert report["pd"] == table.pd

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(0, 3), st.integers(10, 2**31)), min_size=n, max_size=n
                ),
                max_size=8,
            ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), n))
        )
    )
    def test_row_strings_are_monomial_strings(self, rows):
        assert _multidegrees(rows) == [str(Monomial(tuple(r))) for r in rows.tolist()]

    def test_no_monomial_per_entry(self, tmp_path, capsys, monkeypatch):
        # the report once made a Monomial for each of the 338 entries, as
        # the table keys them
        text = "{type:veronese, b:[2, 3, 4, 3, 2], d:4}"
        made = []
        monkeypatch.setattr(Monomial, "__post_init__", lambda self: made.append(self))
        source = parse_ideal(text)
        realization = len(made)
        path = write(tmp_path, "v.txt", text)
        code, out, _ = run_cli(["betti", "--input", path, "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["entries"]) == 338
        assert len(made) - realization <= realization + source.ideal.num_gens


def veronese_doc(n):
    """The degree-1 Veronese type on n variables, bounds all 1."""
    return "{type:veronese, b:[" + ",".join(["1"] * n) + "], d:1}"


class TestVariableCap:
    """Every variable count an input declares or implies is held to 500
    before anything that long is built: past it the command exits 3."""

    @pytest.mark.parametrize(
        "text, count",
        [
            # a MemoryError traceback from parse_ideal; n=100000000 took 21 s
            # to fail under a 4 GB address-space limit
            ("[x1] n=10000000000000", 10000000000000),
            # the same count implied by the largest variable index
            ("[x100000000]", 100000000),
            # still running at 60 s
            ("{type:lp, alpha:[1], beta:[1], n:30000000}", 30000000),
            # a RecursionError from the window search, one level per variable
            (veronese_doc(1200), 1200),
            ("{type:plp, a:[0], b:[1], alpha:[1], beta:[1,1" + ",1" * 500 + "]}", 502),
            ("{type:borel, gens:[x100000000]}", 100000000),
            ("{type:borel, gens:[x1], n:501}", 501),
            ("{type:transversal, sets:[[1], [600]]}", 600),
            ("{type:explicit, gens:[x1], n:501}", 501),
        ],
        ids=[
            "declared-n", "largest-index", "lp-n", "veronese-bounds", "plp-vectors",
            "borel-index", "borel-n", "transversal-index", "explicit-n",
        ],
    )
    def test_refused_at_once(self, text, count, tmp_path, capsys):
        path = write(tmp_path, "wide.txt", text)
        start = time.perf_counter()
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"resource cap: {count} variables exceed the cap of 500\n"

    @pytest.mark.parametrize("n_max", [100000, 1000000000])
    def test_fuzz_budget_refused_at_once(self, n_max, capsys):
        # n_max=100000 once ended in a RecursionError, 10^9 in a MemoryError
        start = time.perf_counter()
        code, out, err = run_cli(
            ["fuzz", "--seed", "1", "--count", "1", "--budget", f"n_max={n_max}"],
            capsys,
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"resource cap: {n_max} variables exceed the cap of 500\n"

    def test_veronese_at_the_cap_passes(self, tmp_path, capsys):
        path = write(tmp_path, "v500.txt", veronese_doc(500))
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["n"] == 500 and report["agreement"] is True


class TestFuzzCommand:
    def test_small_campaign_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out_path in (out_a, out_b):
            code, out, _ = run_cli(
                [
                    "fuzz",
                    "--seed",
                    "42",
                    "--count",
                    "25",
                    "--budget",
                    "n_max=4,degree_max=3,gen_max=60",
                    "--output",
                    str(out_path),
                    "--json",
                ],
                capsys,
            )
            assert code == 0
            summary = json.loads(out)
            assert summary["instances"] == 25
            assert summary["disagreements"] == []
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert {"index", "seed", "spec", "pd"} <= set(first)

    def test_bad_budget_key(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["fuzz", "--seed", "1", "--count", "1", "--budget", "bogus=3"],
            capsys,
        )
        assert code == 1
        assert "parse error" in err

    def test_zero_count_exit_code(self, capsys):
        code, _, err = run_cli(["fuzz", "--seed", "1", "--count", "0"], capsys)
        assert code == 1
        assert "instance_count must be positive" in err

    @pytest.mark.parametrize("budget", ["n_max=1", "degree_max=0", "gen_max=0"])
    def test_budget_below_minimum_exit_code(self, budget, capsys):
        code, out, err = run_cli(
            ["fuzz", "--seed", "1", "--count", "1", "--budget", budget], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "invalid value: generation budget needs n_max >= 2, "
            "degree_max >= 1 and gen_max >= 1\n"
        )

    @pytest.mark.parametrize(
        "budget, message",
        [
            ("n_max", "budget entry n_max has no value; write n_max=<integer>"),
            ("n_max=abc", "budget entry n_max must be an integer, got 'abc'"),
            # a repeated key is refused, not read as its last value
            ("n_max=5,gen_max=9,n_max=6", "budget entry n_max is given twice"),
        ],
        ids=["no-value", "not-an-integer", "repeated-key"],
    )
    def test_malformed_budget_exit_code(self, budget, message, capsys):
        # the entry's key is named, and no position in a document is made up
        code, out, err = run_cli(
            ["fuzz", "--seed", "1", "--count", "1", "--budget", budget], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize("names", ["", ",", " , "], ids=["empty", "comma", "blanks"])
    def test_conjectures_naming_none_exit_code(self, names, capsys):
        # an empty list is refused, not read as every conjecture or as none
        code, out, err = run_cli(
            ["fuzz", "--seed", "1", "--count", "1", "--conjectures", names], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "invalid value: --conjectures names no conjecture; "
            "choose from bbh,chl,transversal_socle\n"
        )

    def test_disagreement_exit_code(self, monkeypatch, capsys):
        import polyshift.cli as cli_module

        class FakeSummary:
            disagreements = [{"kind": "synthetic"}]

            def to_json(self):
                return {"disagreements": self.disagreements}

        monkeypatch.setattr(
            cli_module, "run_campaign", lambda config, sink=None: FakeSummary()
        )
        code, _, err = run_cli(["fuzz", "--seed", "1", "--count", "1"], capsys)
        assert code == 4
        assert "disagreement" in err


class TestUsageAndParsing:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "[x1*")
        code, _, err = run_cli(["hs", "--input", path], capsys)
        assert code == 1
        assert "parse error" in err

    def test_exponent_overflow_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "big.txt", "[x1^99999999999*x2]")
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert code == 1
        assert out == ""
        assert "exceeds the supported range" in err

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("{type:veronese, b:[1,1]}", 1, "parse error: field 'd' must be an integer"),
            ("{type:veronese, b:[1,1], d:[1]}", 1, "parse error: field 'd' must be an integer"),
            (
                "{type:power, base:{type:veronese, b:[1,1], d:1}}",
                1,
                "parse error: field 'k' must be an integer",
            ),
            ("{type:power, k:2}", 1, "parse error: power document needs a 'base' object"),
            ("{type:power, base:5, k:2}", 1, "parse error: power document needs a 'base' object"),
            (
                "{type:transversal, sets:[5]}",
                1,
                "parse error: transversal document needs a nonempty 'sets' list",
            ),
            ("{type:explicit, gens:[x1], n:[2]}", 1, "parse error: field 'n' must be an integer"),
            (
                "{type:plp, a:[], b:[], alpha:[], beta:[]}",
                2,
                "precondition: plp vectors must be nonempty and share one length",
            ),
            ('{type:"veronese, b:[1], d:1}', 1, "parse error: unterminated string"),
            (
                "{type:veronese, b:[1], d:1} x",
                1,
                "parse error: trailing input after family document",
            ),
            (
                "{type:lp, alpha:[1,3], beta:[4,5], N:7}",
                1,
                "parse error: lp document has no field 'N'",
            ),
        ],
        ids=[
            "veronese-no-d", "veronese-list-d", "power-no-k", "power-no-base",
            "power-scalar-base", "transversal-scalar-set", "explicit-list-n",
            "plp-empty", "unterminated-string", "trailing-input", "lp-misspelt-n",
        ],
    )
    def test_malformed_family_document(self, text, code, message, tmp_path, capsys):
        # the first seven but power-scalar-base once ended in a KeyError,
        # TypeError or IndexError traceback
        path = write(tmp_path, "doc.txt", text)
        got, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (got, out) == (code, "")
        assert err.startswith(message)
        assert "Traceback" not in err


    def test_stray_key_placed_in_a_multi_line_document(self, tmp_path, capsys):
        # the error once named line 5, column 1, past the document's end
        path = write(tmp_path, "lp.txt", "{type:lp,\n alpha:[1,3],\n N:7,\n beta:[4,5]}\n")
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err == "parse error: lp document has no field 'N' (line 3, column 2)\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{type:veronese, b:[1,1], d:-1}", "veronese degree must be nonnegative"),
            ("{type:veronese, b:[-1,1], d:1}", "veronese bounds must be nonnegative"),
            ("{type:borel, gens:[x3], n:2}", "borel generator in the wrong ring"),
            (
                "{type:plp, a:[0], b:[1,1], alpha:[1,1], beta:[1,1]}",
                "plp vectors must be nonempty and share one length",
            ),
            (
                "{type:plp, a:[2,0], b:[1,1], alpha:[1,2], beta:[1,2]}",
                "plp needs 0 <= lower <= upper componentwise",
            ),
            (
                "{type:plp, a:[0,0], b:[2,2], alpha:[2,2], beta:[1,2]}",
                "plp needs alpha <= beta componentwise",
            ),
            (
                "{type:plp, a:[0,0], b:[2,2], alpha:[2,1], beta:[2,2]}",
                "plp window sequences must be nondecreasing",
            ),
            (
                "{type:plp, a:[0,0], b:[2,2], alpha:[0,1], beta:[1,2]}",
                "plp windows must close at the degree: alpha_n = beta_n = d >= 1",
            ),
            ("{type:lp, alpha:[1], beta:[1,2]}", "lp needs matching nonempty alpha and beta"),
            ("{type:lp, alpha:[2,1], beta:[2,2]}", "lp interval endpoints must be nondecreasing"),
            ("{type:lp, alpha:[0], beta:[1]}", "lp needs 1 <= alpha_i <= beta_i"),
            ("{type:lp, alpha:[1], beta:[3], n:2}", "lp interval exceeds the ambient variable count"),
            ("{type:transversal, sets:[[]], n:2}", "transversal sets must be nonempty"),
            ("{type:transversal, sets:[[3]], n:2}", "transversal set index out of range"),
            (
                "{type:power, base:{type:lp, alpha:[1], beta:[2]}, k:-1}",
                "power exponent must be nonnegative",
            ),
        ],
        ids=[
            "veronese-degree", "veronese-bounds", "borel-ring", "plp-lengths", "plp-lower",
            "plp-alpha-beta", "plp-nondecreasing", "plp-closing", "lp-lengths",
            "lp-nondecreasing", "lp-alpha-beta", "lp-n", "transversal-empty-set",
            "transversal-index", "power-exponent",
        ],
    )
    def test_spec_validation_refusal(self, text, message, tmp_path, capsys):
        path = write(tmp_path, "doc.txt", text)
        code, out, err = run_cli(["soc", "--input", path, "--json"], capsys)
        assert (code, out, err) == (2, "", f"precondition: {message}\n")

    @pytest.mark.parametrize("command", ["soc", "hs"])
    @pytest.mark.parametrize(
        "text",
        [
            "{type:power, base:" * 999 + "{type:veronese, b:[1,1], d:1}" + ", k:1}" * 999,
            "{type:lp, alpha:" + "[" * 1000 + "]" * 1000 + ", beta:[1]}",
        ],
        ids=["objects", "lists"],
    )
    def test_deep_nesting_is_a_parse_error(self, command, text, tmp_path, capsys):
        # 1000 levels once ended in a RecursionError traceback
        path = write(tmp_path, "deep.txt", text)
        code, out, err = run_cli([command, "--input", path, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("parse error: family document nests deeper than 100 levels")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "x1*x2",
                "parse error: input must start with '[' (generators) or '{' (family spec)",
            ),
            ("[x0]", "parse error: variable index must be positive, got 0"),
            ("[x1^-2]", "parse error: exponents must be nonnegative"),
            ("[x1] m=3", "parse error: expected 'n=<int>' after the generator list"),
        ],
        ids=["no-bracket", "variable-zero", "negative-exponent", "bad-declaration"],
    )
    def test_generator_list_parse_errors(self, text, message, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", text)
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(message + " (line 1, column ")

    def test_missing_input_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.txt")
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("i/o error: ")
        assert "missing.txt" in err

    def test_shifts_of_the_zero_ideal_are_refused(self, tmp_path, capsys):
        path = write(tmp_path, "zero.txt", "[] n=3")
        code, out, err = run_cli(["hs", "--input", path, "--json"], capsys)
        assert (code, out) == (2, "")
        assert err == "precondition: shift ideals of the zero ideal are all zero\n"

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_input_flag(self, capsys):
        assert main(["hs"]) == 1

    def test_stdin_input(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("[x1, x2]"))
        code, out, _ = run_cli(["betti", "--input", "-", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["pd"] == 1

    def test_console_script_installed(self, tmp_path):
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        result = subprocess.run(
            [sys.executable, "-m", "polyshift.cli", "hs", "--input", path, "--json"],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["agreement"] is True


class TestParserReuse:
    """``main`` builds its parser once per process; a parse leaves it as it was."""

    def test_reused_parser_gives_the_bytes_of_fresh_ones(self, tmp_path, capsys):
        path = write(tmp_path, "trio.txt", "[x2*x4, x1*x2, x1*x3] n=4")
        calls = [
            ["betti", "--input", path, "--prime", "4"],  # a usage error mid-parse
            ["betti", "--input", path, "--json"],
            ["hs", "--input", path, "--route", "all", "--json"],
        ]
        build_parser.cache_clear()
        reused = [run_cli(argv, capsys) for argv in calls]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0]
        assert "prime below 2^31" in reused[0][2]


class TestEnvironment:
    def run_child(self, args, tmp_path, **settings):
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=child_env(**settings),
            cwd=tmp_path,
        )

    def test_prime_variable_is_read_at_call_time(self, tmp_path):
        path = write(tmp_path, "c5.txt", CYCLE5)
        betti = ["-m", "polyshift.cli", "betti", "--input", path, "--json"]

        imported = self.run_child(["-c", "import polyshift"], tmp_path, POLYSHIFT_PRIME="abc")
        assert imported.returncode == 0, imported.stderr

        for bad in ("abc", "4"):
            out = self.run_child(betti, tmp_path, POLYSHIFT_PRIME=bad)
            assert out.returncode == 1
            assert out.stdout == ""
            assert f"POLYSHIFT_PRIME must be a prime below 2^31, got {bad!r}" in out.stderr
            assert "Traceback" not in out.stderr

        good = self.run_child(betti, tmp_path, POLYSHIFT_PRIME="101")
        assert good.returncode == 0, good.stderr
        assert json.loads(good.stdout)["prime"] == 101

    def test_import_loads_only_numpy_beyond_the_standard_library(self, tmp_path):
        # every module imported at start-up is paid for by each command
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import polyshift.cli\n"
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(tops - set(sys.stdlib_module_names))))\n"
        )
        out = self.run_child(["-c", code], tmp_path)
        assert out.returncode == 0, out.stderr
        assert set(json.loads(out.stdout)) <= {"numpy", "polyshift"}
