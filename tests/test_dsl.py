"""Parsing, diagnostics and the emit/parse fixpoint."""

import glob
import os
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stonespec import InputError, dsl
from stonespec.family import ComplexSpectralFamily, SpectralFamily
from stonespec.lattice import Lattice
from stonespec.measurable import FieldOfSets, MeasurableFunction, SetIdeal, all_fields
from stonespec.topology import TopSpace, all_topologies

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

MO2_TEXT = """
lattice MO2 {
  elements: 0, a, a', b, b', 1 ;
  order: 0 < a, 0 < a', 0 < b, 0 < b', a < 1, a' < 1, b < 1, b' < 1 ;
  ortho: 0 <-> 1, a <-> a', b <-> b' ;
}
"""


def parse_ok(text):
    result = dsl.parse(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.file


def first_diag(text, code=None):
    result = dsl.parse(text)
    assert not result.ok
    assert result.file is None and result.diagnostics
    if code is not None:
        assert code in {d.code for d in result.diagnostics}, \
            [str(d) for d in result.diagnostics]
    return result.diagnostics[0]


class TestParse:
    def test_golden_lattice(self):
        file = parse_ok(MO2_TEXT)
        lat = file.objects()["MO2"]
        assert isinstance(lat, Lattice)
        assert lat.validate().ok
        assert lat.names == ("0", "a", "a'", "b", "b'", "1")

    def test_comments_and_whitespace(self):
        file = parse_ok("# leading comment\n" + MO2_TEXT + "\n# trailing\n")
        assert len(file.blocks) == 1

    def test_family_with_rationals(self):
        file = parse_ok(MO2_TEXT + """
family E in MO2 { -1/2: a ; 0.75: 1 ; }
""")
        e = file.objects()["E"]
        assert isinstance(e, SpectralFamily)
        assert e.thresholds == (Fraction(-1, 2), Fraction(3, 4))

    def test_topology_field_function_ideal(self):
        file = parse_ok("""
topology S on {1, 2} { opens: {}, {1}, {1,2} ; }
field F on {p, q, r} { atoms: {p}, {q,r} ; }
function f on S { 1: 0 ; 2: 1 ; }
function g on F { p: 3 ; q: 1/2 ; r: 1/2 ; }
ideal I in F { generators: {p} ; }
family E in F { 0: {p} ; 1: {p,q,r} ; }
""")
        objs = file.objects()
        assert isinstance(objs["S"], TopSpace)
        assert isinstance(objs["F"], FieldOfSets)
        assert isinstance(objs["f"], dsl.PointFunction)
        assert isinstance(objs["g"], MeasurableFunction)
        assert isinstance(objs["I"], SetIdeal)
        assert isinstance(objs["E"], SpectralFamily)

    def test_forward_references_resolve(self):
        file = parse_ok("family E in MO2 { 0: a ; 1: 1 ; }\n" + MO2_TEXT)
        assert len(file.blocks) == 2

    def test_family2(self):
        file = parse_ok(MO2_TEXT + """
family2 G in MO2 { 0,0: a ; 0,1: a ; 1,0: a ; 1,1: 1 ; }
""")
        g = file.objects()["G"]
        assert isinstance(g, ComplexSpectralFamily)

    def test_empty_file_parses_to_no_blocks(self):
        file = parse_ok("   \n# nothing here\n")
        assert file.blocks == []

    def test_topology_from_generators_is_closed(self):
        file = parse_ok("topology S on {1, 2, 3} { generators: {1}, {2} ; }")
        t = file.objects()["S"]
        assert t.mask_of(["1", "2"]) in t.opens  # the union was added
        assert len(t.opens) == 5
        emitted = dsl.emit_text(file)
        assert "opens:" in emitted  # emission always lists the closed family
        assert dsl.parse(emitted).file == file

    def test_a_repeated_open_is_parsed_once(self):
        text = "topology S on {1, 2} { opens: {}, {1}, {1}, {1,2}, {}, {1}, { 1 }, {1,2} ; }"
        with mock.patch.object(dsl, "_parse_setlit", side_effect=dsl._parse_setlit) as spy:
            file = parse_ok(text)
        # one call per distinct text; "{ 1 }" is the same open written apart
        assert [c.args[0] for c in spy.call_args_list] == ["{}", "{1}", "{1,2}", "{ 1 }"]
        assert file == parse_ok("topology S on {1, 2} { opens: {}, {1}, {1,2} ; }")

    def test_an_unknown_point_is_an_input_error(self):
        f = parse_ok("topology S on {1, 2} { opens: {}, {1}, {1,2} ; }\n"
                     "function f on S { 1: 0 ; 2: 1 ; }").objects()["f"]
        assert f("2") == 1
        with pytest.raises(InputError, match="unknown point 'zz'"):
            f("zz")

    def test_topology_needs_exactly_one_open_clause(self):
        result = dsl.parse(
            "topology S on {1} { opens: {}, {1} ; generators: {1} ; }")
        assert not result.ok


class TestDiagnostics:
    def test_unknown_block_kind(self):
        d = first_diag("group G { elements: a ; }", "unknown-block")
        assert d.line == 1 and d.column == 1

    def test_non_increasing_thresholds_at_the_offending_line(self):
        d = first_diag(MO2_TEXT + "family E in MO2 {\n  1: a ;\n  0: 1 ;\n}\n",
                       "non-monotone-family")
        assert "non-increasing" in d.message
        assert d.line == 9  # the line of the second threshold

    def test_malformed_rational(self):
        first_diag(MO2_TEXT + "family E in MO2 { one: a ; }", "malformed-rational")
        first_diag(MO2_TEXT + "family E in MO2 { 1/0: a ; }", "malformed-rational")

    def test_dangling_reference(self):
        first_diag("family E in NOPE { 0: a ; }", "dangling-reference")

    def test_duplicate_name(self):
        first_diag(MO2_TEXT + MO2_TEXT, "duplicate-name")

    def test_unknown_element(self):
        first_diag(MO2_TEXT + "family E in MO2 { 0: zz ; }", "unknown-element")

    def test_values_must_be_monotone(self):
        first_diag(MO2_TEXT + "family E in MO2 { 0: a ; 1: b ; 2: 1 ; }",
                   "invalid-family")

    def test_unterminated_block(self):
        first_diag("lattice L { elements: a ", "malformed-header")

    def test_order_and_ortho_pairs_name_their_form(self):
        d = first_diag("lattice L { elements: 0, 1 ; order: 0 <-> 1 ; }", "malformed-clause")
        assert str(d) == "1:37: error: expected 'a < b' in order clause, got '0 <-> 1' " \
                         "[malformed-clause]"
        d = first_diag("lattice L { elements: 0, 1 ; order: 0 < 1 ; ortho: 0 < 1 ; }")
        assert str(d) == "1:52: error: expected 'a <-> b' in ortho clause, got '0 < 1' " \
                         "[malformed-clause]"

    def test_family2_over_a_non_lattice_is_a_diagnostic(self):
        # a and b have two minimal upper bounds, c and d, so no join; the
        # meet law of the grid reads the missing meet/join table
        host = ("lattice P { elements: 0, a, b, c, d, 1 ;"
                " order: 0 < a, 0 < b, a < c, a < d, b < c, b < d, c < 1, d < 1 ; }\n")
        d = first_diag(host + "family2 G in P { 0,0: 0 ; 0,1: a ; 1,0: b ; 1,1: 1 ; }",
                       "invalid-family")
        assert d.message == "not a lattice: a, b have no least upper bound"

    def test_incomplete_family2_names_the_first_gap(self):
        # the gap is named as a file writes its key; the 1/2 row is complete
        d = first_diag(MO2_TEXT + "family2 G in MO2 { 0,0: a ; 1/2,0: a ; 1/2,1: 1 ; }",
                       "malformed-clause")
        assert d.message == "grid is not complete; missing entry at 0,1"

    @pytest.mark.parametrize("host", ["field S on {1, 2} { atoms: {1}, {2} ; }",
                                      "topology S on {1, 2} { opens: {}, {1}, {1, 2} ; }"])
    def test_a_repeated_point_is_a_malformed_clause(self, host):
        d = first_diag(host + "\nfunction f on S { 1: 0 ; 1: 5 ; 2: 1 ; }", "malformed-clause")
        assert str(d) == "2:26: error: duplicate value for point '1' [malformed-clause]"

    @pytest.mark.parametrize("again", ["0,0", "0, 0", "0.0,0/3", "0/2 ,0"])
    def test_a_repeated_grid_cell_is_a_malformed_clause(self, again):
        # cells are compared by their exact values, however the key is written
        d = first_diag(MO2_TEXT + f"family2 G in MO2 {{ 0,0: a ; {again}: 1 ; }}",
                       "malformed-clause")
        assert (d.line, d.column, d.message) == (7, 29, "duplicate entry at 0,0")

    def test_cells_with_distinct_values_are_not_repeats(self):
        file = parse_ok(MO2_TEXT + "family2 G in MO2 { 0,0: a ; 0,1/2: a ; "
                                   "1/2,0: a ; 0.5,0.50: 1 ; }")
        assert file.find("G").obj.xs == (0, Fraction(1, 2))

    def test_a_field_past_six_atoms_is_over_the_open_set_cap(self):
        points = ", ".join(f"p{i}" for i in range(7))
        atoms = ", ".join(f"{{p{i}}}" for i in range(7))
        d = first_diag(f"\nfield F on {{{points}}} {{ atoms: {atoms} ; }}\n", "bad-field")
        assert str(d) == "2:1: error: more than 64 open sets (the cap) [bad-field]"

    def test_never_both_file_and_diagnostics(self):
        result = dsl.parse(MO2_TEXT + "family E in MO2 { 0: zz ; }")
        assert result.file is None and result.diagnostics

    def test_diagnostics_deterministic(self):
        bad = MO2_TEXT + "family E in MO2 { 1: a ; 0: 1 ; }\nfamily E2 in X { 0: a ; }"
        a = [str(d) for d in dsl.parse(bad).diagnostics]
        b = [str(d) for d in dsl.parse(bad).diagnostics]
        assert a == b and len(a) == 2


class TestComments:
    """Comments may stand anywhere, inside a block too, and are read as
    spaces: no clause, name or brace count ever sees their text."""

    def test_comment_inside_a_clause(self):
        file = parse_ok("lattice L { elements: 0, 1 # {x\n ; order: 0 < 1 ; }")
        assert file.find("L").obj.names == ("0", "1")

    def test_clause_punctuation_in_a_body_comment(self):
        plain = parse_ok("lattice L { elements: 0, 1 ; order: 0 < 1 ; }")
        commented = parse_ok("lattice L { elements: 0, 1 ; # a ; b : c , d < e\n"
                             " order: 0 < 1 ; }")
        assert commented == plain

    def test_close_brace_in_a_comment_after_an_unknown_block(self):
        result = dsl.parse("group G { elements: a ; # }\n}\n"
                           "lattice L { elements: 0, 1 ; order: 0 < 1 ; }")
        assert [d.code for d in result.diagnostics] == ["unknown-block"]

    def test_positions_after_a_comment_are_unchanged(self):
        d = first_diag("lattice L { # {x} ; : ,\n elements: 0, 1 ; order: 0 <-> 1 ; }",
                       "malformed-clause")
        assert (d.line, d.column) == (2, 26)


class TestEmission:
    def test_fixpoint_on_all_fixture_files(self):
        paths = sorted(glob.glob(os.path.join(FIXTURES, "*.lat")))
        assert paths, "fixture files missing"
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            file = parse_ok(text)
            emitted = dsl.emit_text(file)
            file2 = parse_ok(emitted)
            assert file2 == file, path
            assert dsl.emit_text(file2) == emitted, path

    @staticmethod
    def chain_file(names, name="L"):
        lat = Lattice(names, list(zip(names, names[1:])))
        return dsl.InstanceFile([dsl.BlockInfo("lattice", name, None, lat)])

    @pytest.mark.parametrize("names, bad", [
        (["0", "a#b", "1"], "element name 'a#b'"),
        (["0", "x->", "1"], "element name 'x->'"),
        (["0", "a<->b", "1"], "element name 'a<->b'"),
        (["0", "", "1"], "element name ''"),
        (["0", " a", "1"], "element name ' a'"),
        (["0", "a;", "1"], "element name 'a;'"),
    ])
    def test_unwritable_element_names_raise(self, names, bad):
        with pytest.raises(InputError, match=f"^cannot write {re.escape(bad)} as text$"):
            dsl.emit_text(self.chain_file(names))

    @pytest.mark.parametrize("name", ["", "my L", "L{", "L#", "L:"])
    def test_unwritable_block_names_raise(self, name):
        with pytest.raises(InputError, match=f"^cannot write block name {re.escape(repr(name))} as text$"):
            dsl.emit_text(self.chain_file(["0", "1"], name))

    def test_unwritable_host_name_raises(self):
        file = self.chain_file(["0", "1"], "L 2")
        fam = SpectralFamily(file.blocks[0].obj, [(0, "1")])
        file.blocks.insert(0, dsl.BlockInfo("family", "E", "L 2", fam))
        with pytest.raises(InputError, match="^cannot write host name 'L 2' as text$"):
            dsl.emit_text(file)

    @pytest.mark.parametrize("points, bad", [
        (("p,q", "r"), "'p,q'"), (("p", "r "), "'r '"), (("", "r"), "''"),
        (("p}", "r"), "'p}'"),
    ])
    def test_unwritable_point_labels_raise(self, points, bad):
        # ("p,q", "r") would be written as {p,q, r}: a different 3-point space
        for kind, obj in (("topology", TopSpace(points, [0, 1, 3])),
                          ("field", FieldOfSets(points, [1, 2]))):
            file = dsl.InstanceFile([dsl.BlockInfo(kind, "S", None, obj)])
            with pytest.raises(InputError, match=f"^cannot write point label {re.escape(bad)} as text$"):
                dsl.emit_text(file)

    def test_names_with_inner_spaces_and_dashes_round_trip(self):
        file = self.chain_file(["0", "a b", "-", ">c", "1"])
        assert parse_ok(dsl.emit_text(file)) == file

    def test_json_shapes(self):
        file = parse_ok(MO2_TEXT + "family E in MO2 { 0: a ; 1: 1 ; }")
        j = dsl.emit_json(file.find("MO2"), file)
        assert j["kind"] == "lattice" and j["bottom"] == "0" and j["top"] == "1"
        j2 = dsl.emit_json(file.find("E"), file)
        assert j2["jumps"] == [["0", "a"], ["1", "1"]]

    def test_json_set_values_for_field_families(self):
        file = parse_ok("""
field F on {p, q} { atoms: {p}, {q} ; }
family E in F { 0: {p} ; 1: {p,q} ; }
""")
        j = dsl.emit_json(file.find("E"), file)
        assert j["jumps"] == [["0", "{p}"], ["1", "{p,q}"]]

    def test_space_lattices_name_each_element_by_its_set(self):
        # why emit_json writes a value of a family in a topology or a field
        # as its element name: that name is the set it stands for
        for n in range(1, 5):
            points = tuple(str(i) for i in range(1, n + 1))
            for space in [*all_topologies(n), *all_fields(points)]:
                for lat in (space.lattice(), space.r_lattice()):
                    assert lat.names == tuple(map(space.set_name, lat.payload))

    def test_json_of_a_lattice_without_bounds(self):
        # an unvalidated lattice may lack a bottom and a top; the text form,
        # rendered from the same dict, leaves both out
        file = parse_ok("lattice L { elements: a, b ; }")
        d = dsl.emit_json(file.find("L"), file)
        assert (d["bottom"], d["top"]) == (None, None)
        assert dsl.emit_text(file) == "lattice L {\n  elements: a, b ;\n}"

    def test_space_lattices_are_valid_by_construction(self):
        # what `stonespec validate` relies on when it checks lattice blocks only
        for n in range(1, 5):
            for t in all_topologies(n):
                assert t.lattice().validate().ok and t.r_lattice().validate().ok
            for f in all_fields(tuple(str(i) for i in range(n))):
                assert f.lattice().validate().ok
        spaces = []
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.lat"))):
            with open(path, encoding="utf-8") as handle:
                spaces += [b.obj for b in parse_ok(handle.read()).blocks
                           if b.kind in ("topology", "field")]
        assert len(spaces) >= 3
        for s in spaces:
            assert s.lattice().validate().ok and s.r_lattice().validate().ok

    def test_dot_contains_cover_edges(self):
        file = parse_ok(MO2_TEXT)
        dot = dsl.emit_dot(file.find("MO2"))
        assert '"0" -> "a"' in dot and '"a" -> "1"' in dot
        assert '"0" -> "1"' not in dot  # transitive edge reduced

    def test_dot_ids_read_back_as_the_names(self):
        # neither quote nor backslash is reserved; DOT reads \" as " and \\ as \
        file = parse_ok('lattice Q"\\ { elements: 0, a"b, c\\, \\" ; '
                        'order: 0 < a"b, 0 < c\\, a"b < \\", c\\ < \\" ; }')
        lat = file.find('Q"\\').obj
        assert lat.names == ("0", 'a"b', "c\\", '\\"')
        dot = dsl.emit_dot(file.find('Q"\\'))
        quoted = r'"((?:[^"\\]|\\.)*)"'
        ids = [re.sub(r"\\(.)", r"\1", q) for q in re.findall(quoted, dot)]
        assert ids[0] == 'Q"\\' and set(ids[1:]) == set(lat.names)
        assert len(ids) == 1 + 4 + 2 * 4  # the graph, each element, each cover edge
        assert re.sub(quoted, "ID", dot).split() == (
            ["digraph", "ID", "{", "rankdir=BT;"] + ["ID;"] * 4 + ["ID", "->", "ID;"] * 4 + ["}"])


class TestRationals:
    def test_exact_forms(self):
        assert dsl.parse_rational(" 1/2 ") == Fraction(1, 2)
        assert dsl.parse_rational("-0.25") == Fraction(-1, 4)
        assert dsl.parse_rational("1e-3") == Fraction(1, 1000)
        assert dsl.parse_rational("2.5E2") == 250
        for bad in ("", "one", "1/0", "1e", "e5", "1/2e3", "nan", "inf", "0.1.2"):
            assert dsl.parse_rational(bad) is None, bad

    def test_exponents_are_bounded_by_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        # the expanded value keeps fewer digits than str() can print
        assert dsl.parse_rational(f"1e-{limit - 2}") == Fraction(1, 10 ** (limit - 2))
        assert dsl.parse_rational(f"1e{limit - 2}") == 10 ** (limit - 2)
        for token in (f"1e-{limit - 1}", f"1e{limit}", "1e-3000000", "1E+99999999",
                      "1e-" + "9" * (limit + 1), "123.45e" + str(limit)):
            assert dsl.parse_rational(token) is None, token[:20]
        assert dsl.parse_rational("1" * (limit + 1)) is None


# --- parser totality on generated text ---------------------------------------------

NAMES = st.sampled_from(["0", "1", "a", "b", "a'", "x", "p", "q", "L", "F", "T", "E"])
RATIONAL_TOKENS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 20)),
    st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", "0.001", ".5", "3."]),
              st.integers(-10 ** 8, 10 ** 8)),
    st.sampled_from(["1e-5000", "1E+99999999", "1e" + "9" * 5000, "9" * 5000, "nan",
                     "1/0", "", "1_0", "0x10", "--1", "1/-2"]))
SET_LITERALS = st.lists(st.sampled_from(["p", "q", "r", "1", "2"]), max_size=3).map(
    lambda ps: "{" + ",".join(ps) + "}")
VALUES = st.one_of(NAMES, SET_LITERALS)
HOSTS = st.sampled_from(["L", "F", "T", "nope"])


def _clauses(draw, parts):
    return " ".join(draw(st.lists(parts, max_size=4)))


@st.composite
def blocks(draw):
    kind = draw(st.sampled_from(dsl.KINDS))
    if kind == "lattice":
        pairs = st.builds("{} < {}".format, NAMES, NAMES)
        body = (f"elements: {', '.join(draw(st.lists(NAMES, max_size=5)))} ; "
                f"order: {', '.join(draw(st.lists(pairs, max_size=5)))} ;")
        if draw(st.booleans()):
            body += f" ortho: {', '.join(draw(st.lists(st.builds('{} <-> {}'.format, NAMES, NAMES), max_size=3)))} ;"
        return f"lattice {draw(NAMES)} {{ {body} }}"
    if kind in ("topology", "field"):
        key = draw(st.sampled_from(["opens", "generators"] if kind == "topology" else ["atoms"]))
        sets = ", ".join(draw(st.lists(SET_LITERALS, max_size=5)))
        return f"{kind} {draw(NAMES)} on {{p, q, r}} {{ {key}: {sets} ; }}"
    if kind == "family":
        jump = st.builds("{}: {} ;".format, RATIONAL_TOKENS, VALUES)
        return f"family {draw(NAMES)} in {draw(HOSTS)} {{ {_clauses(draw, jump)} }}"
    if kind == "family2":
        cell = st.builds("{},{}: {} ;".format, RATIONAL_TOKENS, RATIONAL_TOKENS, VALUES)
        return f"family2 {draw(NAMES)} in {draw(HOSTS)} {{ {_clauses(draw, cell)} }}"
    if kind == "function":
        entry = st.builds("{}: {} ;".format, st.sampled_from(["p", "q", "r", "z"]),
                          RATIONAL_TOKENS)
        return f"function {draw(NAMES)} on {draw(HOSTS)} {{ {_clauses(draw, entry)} }}"
    return f"ideal {draw(NAMES)} in {draw(HOSTS)} {{ generators: {draw(SET_LITERALS)} ; }}"


FRAGMENTS = st.one_of(st.sampled_from(["{", "}", ";", ":", ",", "<", "<->", "#", "\n", "on",
                                       "in", "elements:"]),
                      RATIONAL_TOKENS, st.text(max_size=4))


def _spliced(draw, text, edits):
    """``text`` with ``edits`` spans of up to 8 characters replaced by stray fragments."""
    for _ in range(edits):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(FRAGMENTS) + text[j:]
    return text


@st.composite
def texts(draw):
    """Plausible instance files, then cut and spliced with stray fragments."""
    text = "\n".join(draw(st.lists(blocks(), max_size=5)))
    return _spliced(draw, text, draw(st.integers(0, 3)))


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


FIXTURE_TEXTS = [_read(p) for p in sorted(glob.glob(os.path.join(FIXTURES, "*.lat")))]


@st.composite
def mutated_fixtures(draw):
    """A fixture file with one to four spans spliced."""
    return _spliced(draw, draw(st.sampled_from(FIXTURE_TEXTS)), draw(st.integers(1, 4)))


HEADER_TOKENS = st.one_of(st.sampled_from(["on", "in", "{"]), NAMES)


@st.composite
def header_spliced(draw):
    """Plausible instance files with a block kind and up to three header
    tokens spliced in at block starts and at the end, where header faults
    such as a missing name or host show."""
    parts = draw(st.lists(blocks(), max_size=4)) + [""]
    for i in sorted(draw(st.sets(st.integers(0, len(parts) - 1), min_size=1)), reverse=True):
        head = [draw(st.sampled_from(dsl.KINDS))] + draw(st.lists(HEADER_TOKENS, max_size=3))
        parts.insert(i, " ".join(head))
    return "\n".join(parts)


FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def instance_files(draw):
    """Valid instance files built from library objects: one block of every
    kind, hosted by a fixture lattice, a topology and a field of sets."""
    from stonespec import (all_fields, all_topologies, boolean_lattice, chain_lattice,
                           enumerate_families, ideals_of, mo_lattice, product_family)
    grid = draw(st.lists(FRACTIONS, min_size=1, max_size=3, unique=True))
    lat = draw(st.sampled_from([boolean_lattice, chain_lattice, mo_lattice]))(
        draw(st.integers(1, 3)))
    space = draw(st.sampled_from(all_topologies(draw(st.integers(1, 3)))))
    field = draw(st.sampled_from(all_fields(("p", "q", "r"))))
    families = enumerate_families(lat, grid)
    atom_values = [draw(FRACTIONS) for _ in field.atoms]
    phi = [next(v for a, v in zip(field.atoms, atom_values) if a >> i & 1)
           for i in range(3)]
    blocks = [
        dsl.BlockInfo("lattice", "L", None, lat),
        dsl.BlockInfo("topology", "T", None, space),
        dsl.BlockInfo("field", "F", None, field),
        dsl.BlockInfo("family", "E", "L", draw(st.sampled_from(families))),
        dsl.BlockInfo("family2", "G", "L", product_family(
            draw(st.sampled_from(families)), draw(st.sampled_from(families)))),
        dsl.BlockInfo("family", "ET", "T", draw(st.sampled_from(
            enumerate_families(space.lattice(), grid)))),
        dsl.BlockInfo("family", "EF", "F", draw(st.sampled_from(
            enumerate_families(field.lattice(), grid)))),
        dsl.BlockInfo("function", "f", "T", dsl.PointFunction(
            space, tuple(draw(FRACTIONS) for _ in space.points))),
        dsl.BlockInfo("function", "phi", "F", MeasurableFunction(field, phi)),
        dsl.BlockInfo("ideal", "I", "F", draw(st.sampled_from(ideals_of(field)))),
    ]
    return dsl.InstanceFile(draw(st.permutations(blocks)))


@st.composite
def non_lattice_family2s(draw):
    """A family2 block with a complete grid over a host whose order is
    random, so that the host often lacks a meet or a join."""
    names = ["0", "a", "b", "c", "d", "1"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=8))
    order = ", ".join(f"{a} < {b}" for a, b in pairs if a != b) or "0 < 1"
    xs = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    ys = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    cells = " ".join(f"{x},{y}: {draw(st.sampled_from(names))} ;" for x in xs for y in ys)
    return (f"lattice P {{ elements: {', '.join(names)} ; order: {order} ; }}\n"
            f"family2 G in P {{ {cells} }}\n")


S_HOST = "topology S on {1, 2} { opens: {}, {1}, {1,2} ; }\n"
L_HOST = "lattice L { elements: 0, a, 1 ; order: 0 < a, a < 1 ; }\n"

CLAUSE_FAULTS = [
    # (name, text, the offending token, its line:column, the diagnostic's code)
    ("unknown-element", L_HOST + "family E in L { 0: zz ; }", "zz", "2:20",
     "unknown-element"),
    ("unknown-point", S_HOST + "function f on S { 1: 0 ; z: 5 ; }", "z", "2:26",
     "unknown-element"),
    ("unknown-clause", "lattice L { elements: 0 ; bogus: 1 ; }", "bogus", "1:27",
     "malformed-clause"),
    ("duplicate-clause", "lattice L { elements: 0 ; elements: 1 ; }", "elements", "1:27",
     "malformed-clause"),
    ("keyed-colon", "lattice L { elements 0 ; }", "elements", "1:13", "malformed-clause"),
    ("entry-colon", L_HOST + "family E in L { 0 a ; }", "0", "2:17", "malformed-clause"),
    ("pair", "lattice L { elements: 0, 1 ; order: 0 <-> 1 ; }", "0 <-> 1", "1:37",
     "malformed-clause"),
    ("set-literal", "topology S on {1} { opens: {}, 1 ; }", "1", "1:32", "malformed-clause"),
    ("function-rational", S_HOST + "function f on S { 1: x ; 2: 1 ; }", "x", "2:22",
     "malformed-rational"),
    ("grid-key", L_HOST + "family2 G in L { 0 0: a ; }", "0 0", "2:18", "malformed-clause"),
    ("grid-coordinate", L_HOST + "family2 G in L { 0, zz: a ; }", "zz", "2:21",
     "malformed-rational"),
    ("point-set", "topology T on { p, q { opens: {} ; }", "p", "1:17", "malformed-header"),
]


def text_offset(text, d):
    """The offset in ``text`` of the line and column of diagnostic ``d``."""
    return [0, *(m.end() for m in re.finditer("\n", text))][d.line - 1] + d.column - 1


class TestPositions:
    """A clause diagnostic gives the line and column of its offending token."""

    @pytest.mark.parametrize("text, token, where, code", [row[1:] for row in CLAUSE_FAULTS],
                             ids=[row[0] for row in CLAUSE_FAULTS])
    def test_each_clause_fault_points_at_its_token(self, text, token, where, code):
        d = first_diag(text, code)
        assert f"{d.line}:{d.column}" == where
        assert text[text_offset(text, d):].startswith(token)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(texts(), mutated_fixtures(), header_spliced(),
                     st.sampled_from(FIXTURE_TEXTS)))
    def test_every_diagnostic_points_at_a_token(self, text):
        blanked = dsl._Scanner(text).text  # comments are blank
        for d in dsl.parse(text).diagnostics:
            i = text_offset(text, d)
            assert i == len(text) or not blanked[i].isspace(), (str(d), text)


class TestTotality:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(texts())
    def test_exactly_one_of_file_or_diagnostics(self, text):
        result = dsl.parse(text)
        assert (result.file is None) == bool(result.diagnostics)
        assert result.ok == (result.file is not None)

    @settings(max_examples=150, deadline=None)
    @given(non_lattice_family2s())
    def test_family2_over_generated_hosts(self, text):
        result = dsl.parse(text)
        assert (result.file is None) == bool(result.diagnostics)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text_never_raises(self, text):
        result = dsl.parse(text)
        assert (result.file is None) == bool(result.diagnostics)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance_files())
    def test_emit_parse_fixpoint_on_generated_instances(self, file):
        first = parse_ok(dsl.emit_text(file))
        assert [b.name for b in first.blocks] == [b.name for b in file.blocks]
        emitted = dsl.emit_text(first)
        again = parse_ok(emitted)
        assert again == first
        assert dsl.emit_text(again) == emitted

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(instance_files(), st.data())
    def test_a_comment_line_after_any_brace_or_semicolon(self, file, data):
        text = dsl.emit_text(file)
        cuts = [i + 1 for i, ch in enumerate(text) if ch in ";{"]
        at = data.draw(st.sampled_from(cuts))
        commented = text[:at] + "  # ; : , { } <\n" + text[at:]
        assert parse_ok(commented) == parse_ok(text)


# --- the scanner's oracle: loops over characters, header faults reported in place -


_ORACLE_RESERVED = set("{},;:<#")


class OracleScanner:
    """The scanner as a loop over characters, one at a time."""

    def __init__(self, text: str):
        self.text = re.sub("#[^\n]*", lambda c: " " * len(c[0]), text)
        self.n = len(text)
        self.i = 0
        self.line_starts = [0]
        for k, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(k + 1)

    linecol = dsl._Scanner.linecol

    def skip_ws(self):
        while self.i < self.n and self.text[self.i].isspace():
            self.i += 1

    def token(self) -> tuple:
        self.skip_ws()
        start = self.i
        while self.i < self.n:
            ch = self.text[self.i]
            if ch in _ORACLE_RESERVED or ch.isspace():
                break
            self.i += 1
        return self.text[start:self.i], start

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < self.n else ""

    def expect(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def body(self) -> tuple:
        start = self.i
        depth = 1
        while self.i < self.n:
            ch = self.text[self.i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    raw = self.text[start:self.i]
                    self.i += 1
                    return raw, start, True
            self.i += 1
        return self.text[start:self.i], start, False

    def skip_to_close(self):
        depth = 0
        while self.i < self.n:
            ch = self.text[self.i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                if depth <= 1:
                    self.i += 1
                    return
                depth -= 1
            self.i += 1


def oracle_split_top(text: str, sep: str):
    """The parts between separators at brace depth zero, by a loop over characters."""
    parts = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append((text[start:k], start))
            start = k + 1
    parts.append((text[start:], start))
    return parts


def oracle_scan(sc, diag):
    """Split the text into raw blocks; each malformed header goes to ``diag``
    where it is found, and each branch recovers on its own."""
    blocks = []
    while sc.peek():
        kind, at = sc.token()
        if kind not in dsl.KINDS:
            diag("unknown-block", f"unknown block kind {kind or sc.peek()!r}", at,
                 "expected one of: " + ", ".join(dsl.KINDS))
            sc.skip_to_close()
            continue
        name, name_at = sc.token()
        if not name:
            diag("malformed-header", f"{kind} block is missing a name", name_at)
            sc.skip_to_close()
            continue
        host = host_set = None
        if sc.peek() not in "{":
            link, link_at = sc.token()
            if link not in ("on", "in"):
                diag("malformed-header", f"expected 'on', 'in' or '{{' after the name", link_at)
                sc.skip_to_close()
                continue
            if sc.peek() == "{":
                sc.expect("{")
                raw, raw_at, ok = sc.body()
                if not ok:
                    # at its first non-blank character, or at the end
                    diag("malformed-header", "unterminated point set",
                         raw_at + len(raw) - len(raw.lstrip()))
                    continue
                host_set = dsl._items(raw)
            else:
                host, _ = sc.token()
                if not host:
                    diag("malformed-header", f"missing host name after '{link}'", link_at)
                    sc.skip_to_close()
                    continue
        if not sc.expect("{"):
            diag("malformed-header", f"expected '{{' to open the {kind} body", sc.i)
            sc.skip_to_close()
            continue
        raw, raw_at, ok = sc.body()
        if not ok:
            diag("malformed-header", f"unterminated {kind} block", at)
            continue
        clauses = [(t, raw_at + off) for t, off in oracle_split_top(raw, ";") if t.strip()]
        blocks.append(dsl._RawBlock(kind, name, host, host_set, clauses, at))
    return blocks


def parse_outcome(text):
    """What a parse shows: the ok flag, every diagnostic and every block."""
    result = dsl.parse(text)
    blocks = [(b.kind, b.name, b.host, b.obj) for b in result.file.blocks] if result.ok else []
    return result.ok, [str(d) for d in result.diagnostics], blocks


def oracle_parse_outcome(text):
    """``parse_outcome`` with the oracle's scanner, splitter and block scan in
    place of the parser's; header faults go to the builder's own ``diag``."""
    def scan(sc, reject):
        return oracle_scan(sc, reject.__self__.diag)
    with mock.patch.multiple(dsl, _Scanner=OracleScanner, _split_top=oracle_split_top,
                             _scan=scan):
        return parse_outcome(text)


HEADER_FAULTS = [
    # (text, its first diagnostic); each also runs with a valid block after it and
    # before it, where the recovery shows
    ("lattic L { elements: 0 ; }",
     "1:1: error: unknown block kind 'lattic' [unknown-block] (hint: expected one of: "
     + ", ".join(dsl.KINDS) + ")"),
    ("{ elements: 0 ; }", "1:1: error: unknown block kind '{' [unknown-block] "
     "(hint: expected one of: " + ", ".join(dsl.KINDS) + ")"),
    ("lattice { elements: 0 ; }",
     "1:9: error: lattice block is missing a name [malformed-header]"),
    ("family E of L { 0: 1 ; }",
     "1:10: error: expected 'on', 'in' or '{' after the name [malformed-header]"),
    ("topology T on {p, q", "1:16: error: unterminated point set [malformed-header]"),
    ("family E in ; { 0: 1 ; }",
     "1:10: error: missing host name after 'in' [malformed-header]"),
    ("family E in L 0: 1 ; }",
     "1:15: error: expected '{' to open the family body [malformed-header]"),
    ("lattice L { elements: 0 ;",
     "1:1: error: unterminated lattice block [malformed-header]"),
    ("lattice L", "1:10: error: expected '{' to open the lattice body [malformed-header]"),
]


class TestScannerOracle:
    def test_patterns_classify_every_character_as_the_loops_did(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        # each pattern deletes the characters it matches and leaves the rest in order
        assert dsl._WS.sub("", every) == "".join(ch for ch in every if not ch.isspace())
        assert dsl._TOKEN.sub("", every) == "".join(
            ch for ch in every if ch in _ORACLE_RESERVED or ch.isspace())

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(texts(), mutated_fixtures(), header_spliced(), st.text(max_size=60)))
    @example("lattice a<b { elements: 0 ; }")
    @example("topology T on {p, q { opens: {} ; }} field F { atoms: {p} ; }")
    def test_parse_matches_the_oracle(self, text):
        assert parse_outcome(text) == oracle_parse_outcome(text)

    def test_fixtures_match_the_oracle(self):
        for text in FIXTURE_TEXTS:
            assert parse_outcome(text) == oracle_parse_outcome(text)

    @pytest.mark.parametrize("fault, first", HEADER_FAULTS)
    def test_each_header_fault_as_the_oracle_reports_it(self, fault, first):
        ok, diagnostics, _ = parse_outcome(fault)
        assert not ok and diagnostics[0] == first
        for text in (fault, fault + "\nlattice M { elements: 0 ; }",
                     "lattice M { elements: 0 ; }\n" + fault):
            assert parse_outcome(text) == oracle_parse_outcome(text)

    @settings(max_examples=500)
    @given(st.text(st.sampled_from("{},;: a\n"), max_size=30), st.integers(0, 30))
    def test_split_top_and_body_match_the_character_loop_at_any_offset(self, text, start):
        for sep in ",;:":
            assert list(dsl._split_top(text, sep)) == oracle_split_top(text, sep)
        got, want = dsl._Scanner(text), OracleScanner(text)
        got.i = want.i = min(start, len(text))
        assert (got.body(), got.i) == (want.body(), want.i)
