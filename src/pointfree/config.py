"""Central desk-scale limits.

All enumerative operations in the package grow exponentially, so every
module consults a single Limits record instead of hard-coding caps.  The
defaults can be overridden by a JSON file named by the POINTFREE_CONFIG
environment variable.  A function that enforces a cap or budget takes the
whole record as its `limits` keyword (DEFAULT when omitted) and reads its
own field; a cap is refused only through Limits.check, which names it.
"""

import json
import os
from dataclasses import dataclass, fields

from .errors import MAX_INT_DIGITS, CapExceeded, ParseError


@dataclass(frozen=True)
class Limits:
    poset_cap: int = 16          # max poset / lattice elements for downset and Stone enumeration
    generator_cap: int = 8       # max presentation generators
    coproduct_cap: int = 16      # max |f| * |g| and |f ⊕ g| for coproducts, |f|^2 for Hausdorff
    bnb_node_budget: int = 10**6  # branch-and-bound node budget
    degree_cap: int = 64         # max syntactic degree of an evt expression
    axiom_instance_cap: int = 65536  # max axiom instances a theory compiles to
    element_cap: int = 4096      # max frame elements listed, and sub-counts with one top per count
    constant_bit_cap: int = 4096  # max bits in the constants of an evt expression, counted through + - * ^

    def check(self, what, size, field):
        """Refuse `size` of `what` past the cap `field` of this record: the
        one place a CapExceeded is raised, naming the size, cap and field."""
        if size > (cap := getattr(self, field)):
            raise CapExceeded(what, size, cap, field)


def read_input(path):
    """The text of an input file; a ParseError when its bytes are not
    UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}")


def _members(pairs):
    """A JSON object's members as a dict, refusing a repeated name, of
    which json.loads would silently keep the last value."""
    data = {}
    for name, value in pairs:
        if name in data:
            raise ParseError(f"repeated config field {name!r}")
        data[name] = value
    return data


def _json_int(text):
    """A JSON integer, refusing one past MAX_INT_DIGITS, at which
    json.loads raises a ValueError."""
    digits = len(text.lstrip("-"))
    if digits > MAX_INT_DIGITS:
        raise ParseError(f"config value is an integer of {digits} digits, "
                         f"expected at most {MAX_INT_DIGITS}")
    return int(text)


def load_limits():
    """Limits from POINTFREE_CONFIG if set, otherwise the defaults.  The
    file must hold a JSON object whose keys are distinct Limits fields and
    whose values are non-negative integers; a body nested past the
    decoder's recursion limit, or an integer past MAX_INT_DIGITS, is
    a ParseError too."""
    path = os.environ.get("POINTFREE_CONFIG")
    if not path:
        return Limits()
    try:
        data = json.loads(read_input(path), object_pairs_hook=_members,
                          parse_int=_json_int)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ParseError(f"POINTFREE_CONFIG {path} is nested too deeply "
                         f"to read") from None
    if not isinstance(data, dict):
        raise ParseError("POINTFREE_CONFIG must hold a JSON object")
    known = {f.name for f in fields(Limits)}
    for name, value in data.items():
        if name not in known:
            raise ParseError(f"unknown config field {name!r}")
        if type(value) is not int or value < 0:
            raise ParseError(f"config field {name!r} must be a non-negative "
                             f"integer, not {json.dumps(value)}")
    return Limits(**data)


DEFAULT = Limits()
