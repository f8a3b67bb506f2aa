"""Bundled example inputs and the loaders shared by the command line
tool and the test suite.

`load_setup` is the one loader of a complex with its coefficients,
twist and action, shared by the subcommands `validate`, `fixedpoints`,
`bredon`, `twisted` and `crosscheck`; `validate` prints the checks it
records in `Setup.checked`.

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

Every key is read through `reader`, whose errors name its key path; a
key no loader reads is refused, and the loaders check what keys mean.
"""

import json
import os

from .bredon import EdgePathProvider, GroupTwistProvider
from .coefficients import CoefficientSystem, LocalSystem
from .edgepaths import EdgeActionSystem, PathChoice
from .equivariant import GSimplicialSet, fixed_point_system
from .groups import FiniteGroup, OrbitCategory
from .reader import OBJECT, POSITIVE, TRUE, expect, known
from .twisting import GroupTwist, check_naturality

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def load_json(path: str) -> dict:
    """The JSON object a UTF-8 file holds; every input format is an
    object, and any other file is refused by its path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as ex:  # no UTF-8, or no JSON
        raise ValueError(f"{path}: {ex}") from ex
    if type(data) is not dict:
        raise ValueError(f"{path}: expected a JSON object")
    return data


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
    out.gx = GSimplicialSet.from_json(load_json(complex_path))
    out.checked.append("complex")
    out.cat = OrbitCategory(out.gx.group)
    out.ph = fixed_point_system(out.gx, out.cat)
    out.checked.append("fixed point system")
    if coeffs_path is not None:
        out.system = CoefficientSystem.from_json(out.cat,
                                                 load_json(coeffs_path))
        out.checked.append("coefficient system")
    if twist_path is None:
        if action_path is not None:
            raise ValueError("an action file needs a twist file")
        return out
    tdata = load_json(twist_path)
    adata = load_json(action_path) if action_path is not None else None
    if "pi" not in tdata and "kappa" not in tdata:
        raise ValueError("twist file carries neither 'pi' nor 'kappa'")
    known(tdata, ("pi", "values") if "pi" in tdata else ("kappa",), "twist")
    if "pi" in tdata:
        pi = FiniteGroup.from_json(expect(tdata, "pi", OBJECT, "twist"),
                                   "twist 'pi'")
        out.twist = GroupTwist.from_json(
            out.gx.space, pi, expect(tdata, "values", OBJECT, "twist"))
        out.checked.append("twisting identities")
        check_naturality(out.ph, out.twist)
        out.checked.append("classifying map naturality")
        if adata is None:
            return out
        if out.system is None:
            raise ValueError("a coefficient action needs --coeffs")
        local = LocalSystem.from_json(out.system, pi, adata)
        out.checked.append("coefficient action")
        out.provider = GroupTwistProvider(local, out.twist)
    else:
        choice = PathChoice.from_json(out.ph,
                                      expect(tdata, "kappa", OBJECT, "twist"))
        out.checked.append("edge paths")
        if out.system is None:
            if adata is not None:
                raise ValueError("edge actions need a coefficient system")
            return out
        if adata is None:
            raise ValueError("an edge path twist needs an action file")
        known(adata, ("edges",), "action")
        actions = EdgeActionSystem.from_json(
            out.ph, out.system, expect(adata, "edges", OBJECT, "action"))
        out.checked.append("edge holonomies")
        out.provider = EdgePathProvider(out.ph, choice, actions)
    return out


def load_theory_data(theory_path: str) -> tuple[int, int]:
    """The bounds (i_max, p_max) of a canonical theory file."""
    data = load_json(theory_path)
    known(data, ("canonical", "i_max", "p_max"), "theory")
    expect(data, "canonical", TRUE, "theory")
    return (expect(data, "i_max", POSITIVE, "theory"),
            expect(data, "p_max", POSITIVE, "theory"))
