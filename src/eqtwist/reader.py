"""The one reader of the JSON input files: every check of a JSON type.

Readers take each key through `expect`, `entries` or `members`, with a
kind and `where`, the key path as errors name it ("coefficient
'constant'").  A kind is a test and the phrase an error ends with; a
path is formatted only when a check fails.  What the keys mean (names
that resolve, group laws, face identities) the callers check.
"""


def known(data: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuses a key of data outside keys, the keys its reader reads."""
    for key in data:
        if key not in keys:
            raise ValueError(f"{where} has an unknown key {key!r}")


def expect(data: dict, key: str, kind, where: str, default=None):
    """data[key], of the given kind; a missing key is refused unless a
    default is given."""
    if key not in data:
        if default is None:
            raise ValueError(f"{where} has no {key!r}")
        return default
    test, phrase = kind
    if not test(data[key]):
        raise ValueError(f"{where} {key!r} " + phrase.format(data[key]))
    return data[key]


def entries(mapping: dict, kind, where: str, at: str | None = None):
    """The items of a JSON object whose values are all of the given kind;
    an error names the key, and `at`, the key the object sits under."""
    test, phrase = kind
    for key, value in mapping.items():
        if not test(value):
            under = "" if at is None else f" at {at!r}"
            raise ValueError(f"{where} key {key!r}{under} "
                             + phrase.format(value))
    return mapping.items()


def members(values: list, kind, where: str, at: str) -> list:
    """A JSON list whose members are all of the given kind; an error
    names the member and `at`, the key the list sits under."""
    test, phrase = kind
    for value in values:
        if not test(value):
            raise ValueError(f"{where} {value!r} at {at!r} "
                             + phrase.format(value))
    return values


def _strings(value) -> bool:
    return type(value) is list and all(type(x) is str for x in value)


OBJECT = (lambda v: type(v) is dict, "must be a JSON object")
STRING = (lambda v: type(v) is str, "must be a JSON string")
NATURAL = (lambda v: type(v) is int and v >= 0,
           "{!r} is not a nonnegative JSON integer")
POSITIVE = (lambda v: type(v) is int and v > 0,
            "{!r} is not a positive JSON integer")
TRUE = (lambda v: v is True,
        "must be true: only canonical theory descriptors are supported")
STRINGS = (_strings, "must be a JSON list of strings")
CELL_NAMES = (_strings, "is not a list of cell names")
FACE_REFS = (_strings, "is not a list of face references")
# a matrix or a group table, whose constructor checks the entries
ROWS = (lambda v: type(v) is list and all(type(r) is list for r in v),
        "must be a JSON list of rows")
SUBGROUP_PATHS = (OBJECT[0], "is not an object from subgroups to vertex "
                             "paths")
VERTEX_PATHS = (OBJECT[0], "is not an object from vertices to paths")
STEPS = (lambda v: type(v) is list, "is not a list of steps")
STEP = (lambda v: type(v) is list and len(v) == 2 and type(v[0]) is str,
        "is not an [edge name, direction] pair")
