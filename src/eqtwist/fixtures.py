"""Bundled example inputs and the loaders shared by the command line
tool and the test suite.

`load_setup` is the one loader of a complex with its coefficients,
twist and action, shared by the subcommands `validate`, `fixedpoints`,
`bredon`, `twisted` and `crosscheck`; `validate` prints the checks it
records in `Setup.checked`.  Its provider is None when there is no
twist: with no twist file, and with a group twist file but no action
file, whose group then acts trivially and gives the untwisted complex.

File formats:

  complex   truncation, simplices, faces, group, action
            (the serialization of GSimplicialSet); the truncation is a
            nonnegative JSON integer, no cell lies above it, each
            key of faces names a cell of dimension >= 1 and each key
            of action a group element, mapping every cell to a cell
  coeffs    {"constant": {gens, rels}} or explicit values and maps,
            read against the orbit category of the complex; gens is a
            nonnegative JSON integer and rels a list of rows, one per
            generator
  twist     {"pi": <group>, "values": {cell: element}} for a group
            valued twisting function, one key per cell of dimension
            >= 1, or
            {"kappa": {"basepoint": v, "paths": {subgroup: {vertex:
            [[edge, +-1], ...]}}}} for an edge path datum, each step
            direction the JSON integer 1 or -1
  action    {"phi": {subgroup: {element: matrix}}} for a group acting
            on the coefficients, or
            {"edges": {subgroup: {edge: matrix}}} for edge holonomies;
            a group twist with no action file is no twist
  theory    {"canonical": true, "i_max": i, "p_max": p}, with i and p
            positive JSON integers

All loaders validate as they go and raise ValueError with the offending
item named; a file of the wrong shape is reported the same way.
"""

import contextlib
import json
import os

from .bredon import EdgePathProvider, GroupTwistProvider
from .coefficients import CoefficientSystem, LocalSystem
from .edgepaths import EdgeActionSystem, PathChoice
from .equivariant import GSimplicialSet, fixed_point_system
from .groups import FiniteGroup, OrbitCategory
from .twisting import GroupTwist, check_naturality

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def load_json(path: str) -> dict:
    """The JSON object a file holds; every input format is an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


@contextlib.contextmanager
def parsing():
    """Block that reads JSON data into objects.

    A file of the wrong shape (a missing key, a list where an object
    belongs) fails inside a `from_json` with KeyError, TypeError,
    IndexError or AttributeError; in this block it raises the ValueError
    of bad input instead.  Only parsing belongs here, so the errors of
    the computations between parsing steps pass through unchanged.
    """
    try:
        yield
    except KeyError as ex:
        raise ValueError(f"malformed input: missing key {ex}") from ex
    except (TypeError, IndexError, AttributeError) as ex:
        raise ValueError(f"malformed input: {ex}") from ex


class Setup:
    """Everything the cohomology commands need, parsed and validated.

    provider is the twist of the coboundary, None for no twist: no
    twist file, or a group twist with no action file, which acts
    trivially.  twist is the group twist, when the twist file gives
    one.  checked names each check passed, in the order it ran.
    """

    __slots__ = ("gx", "cat", "ph", "system", "provider", "twist", "checked")

    def __init__(self):
        self.gx = None
        self.cat = None
        self.ph = None
        self.system = None
        self.provider = None
        self.twist = None
        self.checked = []


def load_setup(complex_path: str, coeffs_path: str | None = None,
               twist_path: str | None = None,
               action_path: str | None = None) -> Setup:
    """Parse and cross validate the referenced files.

    Everything is checked before any cohomology is computed, so a
    ValueError out of here always means bad input, not a broken run.
    """
    out = Setup()
    with parsing():
        out.gx = GSimplicialSet.from_json(load_json(complex_path))
    out.checked.append("complex")
    out.cat = OrbitCategory(out.gx.group)
    out.ph = fixed_point_system(out.gx, out.cat)
    out.checked.append("fixed point system")
    if coeffs_path is not None:
        with parsing():
            out.system = CoefficientSystem.from_json(out.cat,
                                                     load_json(coeffs_path))
        out.checked.append("coefficient system")
    if twist_path is None:
        if action_path is not None:
            raise ValueError("an action file needs a twist file")
        return out
    tdata = load_json(twist_path)
    adata = load_json(action_path) if action_path is not None else None
    if "pi" in tdata:
        if type(tdata["pi"]) is not dict:
            raise ValueError("twist 'pi' must be a JSON object")
        with parsing():
            pi = FiniteGroup.from_json(tdata["pi"])
            out.twist = GroupTwist.from_json(out.gx.space, pi,
                                             tdata["values"])
        out.checked.append("twisting identities")
        check_naturality(out.ph, out.twist)
        out.checked.append("classifying map naturality")
        out.twist.check_equivariant(out.gx)
        if adata is None:
            return out
        if out.system is None:
            raise ValueError("a coefficient action needs --coeffs")
        if "phi" not in adata:
            raise ValueError("action file for a group twist must carry 'phi'")
        with parsing():
            local = LocalSystem.from_json(out.system, pi, adata)
        out.checked.append("coefficient action")
        out.provider = GroupTwistProvider(local, out.twist)
    elif "kappa" in tdata:
        with parsing():
            choice = PathChoice.from_json(out.ph, tdata["kappa"])
        out.checked.append("edge paths")
        if out.system is None:
            if adata is not None:
                raise ValueError("edge actions need a coefficient system")
            return out
        if adata is None or "edges" not in adata:
            raise ValueError(
                "an edge path twist needs an action file with 'edges'")
        with parsing():
            actions = EdgeActionSystem.from_json(out.ph, out.system,
                                                 adata["edges"])
        out.checked.append("edge holonomies")
        out.provider = EdgePathProvider(out.ph, choice, actions)
    else:
        raise ValueError("twist file carries neither 'pi' nor 'kappa'")
    return out


def load_theory_data(theory_path: str) -> dict:
    data = load_json(theory_path)
    if data.get("canonical") is not True:
        raise ValueError("only canonical theory descriptors are supported")
    with parsing():
        bounds = {key: data[key] for key in ("i_max", "p_max")}
    for key, value in bounds.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"theory bound {key!r} must be a JSON integer")
        if value < 1:
            raise ValueError("theory bounds must be positive")
    return bounds
