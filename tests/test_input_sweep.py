"""Every single-node edit of nine input files, run through the command
line in process.

Each node of each file is replaced in turn by each of ten JSON values,
and each node but the root is deleted.  An edited file either still
holds a valid input (the listed allowance, each with its reason) or
exits 1 with one error line that names where the file went wrong: the
nearest object key on the edited node's path when the edit changes the
node's JSON type, or the file itself for an edit of the root.  A second
sweep replaces each string and each object key by another name the same
file holds, so that a name resolving to the wrong kind of thing is an
error line too.
"""

import contextlib
import copy
import io
import json

import pytest

from eqtwist import cli
from eqtwist.fixtures import fixture_path

REPLACEMENTS = [5, -1, 1.5, True, None, "zz", [], {}, [5], {"zz": 1}]
DELETE = "delete"


def fx(name):
    return str(fixture_path(name))


# a "values" coefficient file over C_2, refs1's group: Z/2 at both
# orbits, restricted by the identity
C2_VALUES = {"values": {"e": {"gens": 1, "rels": [[2]]},
                        "e,t": {"gens": 1, "rels": [[2]]}},
             "maps": {"e|e,t|e": [[1]], "e|e|t": [[1]]}}


# each file, and the command line it completes as the last flag's value
COMMANDS = {
    "s1": ["twisted", "--coeffs", fx("coeffs_z2.json"),
           "--twist", fx("twist_s1_z2.json"), "--nmax", "1", "--complex"],
    "refs1": ["bredon", "--coeffs", fx("coeffs_z2.json"), "--nmax", "1",
              "--complex"],
    "coeffs_z4": ["crosscheck", "--complex", fx("s1.json"),
                  "--twist", fx("twist_s1_z4.json"),
                  "--action", fx("action_s1_z4_sign.json"), "--nmax", "1",
                  "--coeffs"],
    "twist_s1_z2": ["twisted", "--complex", fx("s1.json"),
                    "--coeffs", fx("coeffs_z2.json"), "--nmax", "1",
                    "--twist"],
    "twist_triangle": ["twisted", "--complex", fx("triangle.json"),
                       "--coeffs", fx("coeffs_z.json"),
                       "--action", fx("action_triangle.json"), "--nmax", "1",
                       "--twist"],
    "action_s1_z4_sign": ["twisted", "--complex", fx("s1.json"),
                          "--coeffs", fx("coeffs_z4.json"),
                          "--twist", fx("twist_s1_z4.json"), "--nmax", "1",
                          "--action"],
    "action_triangle": ["twisted", "--complex", fx("triangle.json"),
                        "--coeffs", fx("coeffs_z.json"),
                        "--twist", fx("twist_triangle.json"), "--nmax", "1",
                        "--action"],
    "theory_canonical": ["crosscheck", "--complex", fx("s1.json"),
                         "--coeffs", fx("coeffs_z2.json"), "--nmax", "1",
                         "--theory"],
    "c2_values": ["bredon", "--complex", fx("refs1.json"), "--nmax", "1",
                  "--coeffs"],
}
FIXTURES = sorted(set(COMMANDS) - {"c2_values"})

SAME = "the value it replaces"
TRIVIAL_GROUP = "the trivial group's identity needs no cell map"
EMPTY_DIMENSION = "an empty dimension may be left out"
LARGER = "a larger bound than the command reads"

# (file, path, edit) -> why the edited file is still valid input
ALLOWED = {
    ("s1", ("action",), "{}"): TRIVIAL_GROUP,
    ("s1", ("action",), DELETE): TRIVIAL_GROUP,
    ("s1", ("action", "e"), DELETE): TRIVIAL_GROUP,
    ("s1", ("simplices", "2"), "[]"): SAME,
    ("s1", ("simplices", "2"), DELETE): EMPTY_DIMENSION,
    ("s1", ("simplices", "3"), "[]"): SAME,
    ("s1", ("simplices", "3"), DELETE): EMPTY_DIMENSION,
    ("s1", ("truncation",), "5"): "a larger truncation adds empty dimensions",
    ("refs1", ("action", "e"), DELETE): "the identity needs no cell map",
    ("refs1", ("simplices", "2"), "[]"): SAME,
    ("refs1", ("simplices", "2"), DELETE): EMPTY_DIMENSION,
    ("refs1", ("simplices", "3"), "[]"): SAME,
    ("refs1", ("simplices", "3"), DELETE): EMPTY_DIMENSION,
    ("refs1", ("truncation",), "5"):
        "a larger truncation adds empty dimensions",
    ("coeffs_z4", ("constant", "rels"), "[]"): "Z, with no relation",
    ("coeffs_z4", ("constant", "rels"), DELETE): "Z, with no relation",
    ("coeffs_z4", ("constant", "rels", 0), "[]"): "Z, with no relation",
    ("coeffs_z4", ("constant", "rels", 0), DELETE): "Z, with no relation",
    ("coeffs_z4", ("constant", "rels", 0, 0), DELETE): "Z, with no relation",
    ("coeffs_z4", ("constant", "rels", 0), "[5]"): "Z/5, another group",
    ("coeffs_z4", ("constant", "rels", 0, 0), "5"): "Z/5, another group",
    ("coeffs_z4", ("constant", "rels", 0, 0), "-1"): "0, another group",
    ("twist_s1_z2", ("pi", "elements", 0), '"zz"'):
        "the identity renamed; the twist names only t",
    ("twist_triangle", ("kappa", "paths", "e", "v0"), "[]"): SAME,
    ("action_s1_z4_sign", ("phi", "e", "t", 0, 0), "-1"): SAME,
    ("action_s1_z4_sign", ("phi", "e", "t2", 0), "[5]"):
        "5 is 1 modulo the relation 4",
    ("action_s1_z4_sign", ("phi", "e", "t2", 0, 0), "5"):
        "5 is 1 modulo the relation 4",
    ("action_s1_z4_sign", ("phi", "e", "t3", 0, 0), "-1"): SAME,
    ("action_triangle", ("edges", "e", "e01", 0, 0), "-1"):
        "another holonomy that composes on the triangle",
    ("action_triangle", ("edges", "e", "e02", 0, 0), "-1"):
        "another holonomy that composes on the triangle",
    ("action_triangle", ("edges", "e", "e12", 0, 0), "-1"): SAME,
    ("theory_canonical", ("canonical",), "true"): SAME,
    ("theory_canonical", ("i_max",), "5"): LARGER,
    ("theory_canonical", ("p_max",), "5"): LARGER,
    ("c2_values", ("values", "e", "rels", 0, 0), "-1"):
        "0 at the free orbit, which every map may reach",
    **{("c2_values", ("values", "e,t") + path, edit):
       "Z at the fixed orbit, restricted onto Z/2"
       for path, edit in [(("rels",), "[]"), (("rels",), DELETE),
                          (("rels", 0), "[]"), (("rels", 0), DELETE),
                          (("rels", 0, 0), DELETE)]},
    **{("c2_values", ("maps", key) + path, edit): "5 and -1 are 1 modulo 2"
       for key in ("e|e,t|e", "e|e|t")
       for path, edit in [((0,), "[5]"), ((0, 0), "5"), ((0, 0), "-1")]},
}

# (file, path, "key" or "value", the name put there) -> why the edited
# file is still valid input; a key no reader reads is refused, so no
# key renamed onto another name is valid
RENAMES_ALLOWED = {
    **{("twist_s1_z2", ("pi", "elements", 0), "value", name):
       "the identity renamed; the twist names only t"
       for name in ("elements", "pi", "table", "values")},
    ("twist_s1_z2", ("values", "e"), "value", "e"):
        "the cell twisted by the identity",
}

def nodes(data, path=()):
    yield path, data
    if type(data) is dict:
        for key, value in data.items():
            yield from nodes(value, path + (key,))
    elif type(data) is list:
        for i, value in enumerate(data):
            yield from nodes(value, path + (i,))


def source(name):
    if name == "c2_values":
        return C2_VALUES
    with open(fx(f"{name}.json")) as fh:
        return json.load(fh)


def edits(name):
    """(path, edit, old node, edited file) for every single-node edit."""
    data = source(name)
    for path, old in nodes(data):
        for value in REPLACEMENTS + ([DELETE] if path else []):
            if not path:
                yield path, json.dumps(value), old, value
                continue
            new = copy.deepcopy(data)
            parent = new
            for key in path[:-1]:
                parent = parent[key]
            if value == DELETE:
                del parent[path[-1]]
                yield path, DELETE, old, new
            else:
                parent[path[-1]] = value
                yield path, json.dumps(value), old, new


def strings(data) -> set:
    """Every object key and string value of a JSON document."""
    if type(data) is dict:
        return set(data).union(*map(strings, data.values()))
    if type(data) is list:
        return set().union(*map(strings, data))
    return {data} if type(data) is str else set()


def renames(name):
    """(path, "key" or "value", name, edited file) for every replacement of
    one string value or object key by another name the file holds; a key
    is not renamed onto a key beside it."""
    data = source(name)
    held = sorted(strings(data))
    for path, old in nodes(data):
        if not path:
            continue
        new = copy.deepcopy(data)
        parent = new
        for key in path[:-1]:
            parent = parent[key]
        for other in held:
            if type(old) is str and other != old:
                parent[path[-1]] = other
                yield path, "value", other, copy.deepcopy(new)
                parent[path[-1]] = old
            if type(path[-1]) is str and other not in parent:
                renamed = {other if k == path[-1] else k: v
                           for k, v in parent.items()}
                yield path, "key", other, _replaced(new, path[:-1], renamed)


def _replaced(data, path, value):
    """A copy of data with the node at path replaced by value."""
    if not path:
        return value
    out = copy.copy(data)
    out[path[0]] = _replaced(data[path[0]], path[1:], value)
    return out


def run(name, path, data):
    """The exit code, stdout and stderr of the command line on the file."""
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(COMMANDS[name] + [str(path)])
    return code, out.getvalue(), err.getvalue()


def one_error_line(code, out, err) -> bool:
    lines = err.splitlines()
    return code == 1 and not out and len(lines) == 1 and \
        lines[0].startswith("error: ") and \
        not lines[0].startswith("error: malformed input:")


def json_type(value) -> str:
    return type(value).__name__


def names(line: str, key: str) -> bool:
    """A line names a key when it quotes it, or when the key is the
    subject the message opens with, as in "table entries must be ..."."""
    return repr(key) in line or line.startswith(f"error: {key} ")


def test_the_sweep_edits_every_node_of_the_eight_fixture_files():
    assert sum(1 for name in FIXTURES for _ in edits(name)) == 1367
    assert sum(1 for case in ALLOWED if case[0] in FIXTURES) == 34


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_single_node_edit_is_valid_or_named(tmp_path, name):
    path = tmp_path / f"{name}.json"
    accepted, wrong = set(), []
    for where, edit, old, new in edits(name):
        code, out, err = run(name, path, new)
        case = (name, where, edit)
        if code == 0:
            accepted.add(case)
            continue
        if not one_error_line(code, out, err):
            wrong.append((case, code, err))
            continue
        if edit == DELETE or json_type(old) == json_type(json.loads(edit)):
            continue
        keys = [k for k in where if type(k) is str]
        if not (names(err, keys[-1]) if keys else str(path) in err):
            wrong.append((case, code, err))
    assert wrong == []
    assert accepted == {case for case in ALLOWED if case[0] == name}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_name_put_in_the_wrong_place_is_valid_or_an_error(tmp_path,
                                                                 name):
    path = tmp_path / f"{name}.json"
    accepted, wrong = set(), []
    for where, kind, other, new in renames(name):
        code, out, err = run(name, path, new)
        case = (name, where, kind, other)
        if code == 0:
            accepted.add(case)
        elif not one_error_line(code, out, err):
            wrong.append((case, code, err))
    assert wrong == []
    assert accepted == {case for case in RENAMES_ALLOWED if case[0] == name}
