"""Model data for the five-dimensional product contact manifold.

Orbit types and their Conley-Zehnder indices live in ``indexcalc``;
this module holds the leaves and the model configuration.  Leaves of the
holomorphic foliation come in three kinds: cylindrical over a critical
point, flow-line leaves over an index-one flow segment staying on one
side, and page-like leaves over a flow segment crossing the dividing
set.  Every flow-line or page-like leaf belongs to a two-element twin
family (a saddle has exactly two separatrices to each neighbouring
extremum), recorded here as a flavor bit.

The bundled fixture uses the smallest admissible data: three dividing
circles, the minimal Morse functions on both surface pieces, a base
surface of genus two with a minimal Morse function, and one geodesic
orbit class per side orientation.  Thresholds are chosen so double
covers of a single end fit the action budget but nothing larger does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConfigurationError

# Leaf hypersurface kinds.  Flow segments are named source:sink in the
# surface Morse function; page-like leaves cross the dividing set.
FLOW_LEFT = "hyp-:min"
FLOW_RIGHT = "max:hyp+"
PAGE_MAX_MIN = "max:min"
PAGE_MAX_HYP = "max:hyp-"
PAGE_HYP_MIN = "hyp+:min"

# index drop of the flow segment = dimension of the deformations of a
# curve confined to the leaf through nearby leaves (cylindrical leaves
# have none); these lie in the kernel of its normal operator, so this
# is only a lower bound of that kernel's dimension
FLOW_INDEX = {FLOW_LEFT: 1, FLOW_RIGHT: 1,
              PAGE_MAX_MIN: 2, PAGE_MAX_HYP: 1, PAGE_HYP_MIN: 1}


@dataclass(frozen=True, order=True)
class Leaf:
    """A leaf hypersurface type with a twin flavor bit.

    kind "cyl" is the cylindrical leaf over the named critical point;
    "flow1" stays on one side over an index-one segment; "page" crosses
    the dividing set.  Non-cylindrical leaves come in twin pairs; the
    flavor selects the member and the twin map flips it.
    """

    kind: str
    name: str
    flavor: int = 0

    def __post_init__(self):
        if self.kind not in ("cyl", "flow1", "page"):
            raise ConfigurationError("unknown leaf kind %r" % (self.kind,))
        if self.kind == "cyl" and self.flavor != 0:
            raise ConfigurationError("cylindrical leaves have no twin")
        if self.flavor not in (0, 1):
            raise ConfigurationError("flavor is a twin bit")

    @property
    def twistable(self) -> bool:
        return self.kind != "cyl"

    def twin(self) -> "Leaf":
        if not self.twistable:
            raise ConfigurationError("cylindrical leaves have no twin")
        return replace(self, flavor=1 - self.flavor)

    @property
    def dim_ker_normal(self) -> int:
        if self.kind == "cyl":
            return 0
        return FLOW_INDEX[self.name]

    def label(self) -> str:
        if self.kind == "cyl":
            return "cyl(%s)" % self.name
        return "%s(%s)%s" % (self.kind, self.name,
                             "'" if self.flavor else "")


@dataclass(frozen=True)
class ModelConfig:
    """Fixture data and enumeration conventions for one model instance.

    The ``enumerate`` manifest records and digests every field.
    """

    left_action_unit: Fraction = Fraction(1)
    right_action_unit: Fraction = Fraction(1)
    action_threshold: Fraction = Fraction(5, 2)
    cover_threshold: int = 2
    # the depth of the search, a convention of the count: the (1,1) case
    # has 29 configurations at 3 levels, 33 from 4 levels up
    max_levels: int = 3
    # convention toggles
    allow_generic_crossing_pages: bool = True
    left_covers_as_classes: bool = False
    allow_branched_trivial_covers: bool = True
    allow_flowline_pants: bool = False
    flow_cover_attach_even_only: bool = True

    def __post_init__(self):
        if self.action_threshold <= 0 or self.cover_threshold < 1:
            raise ConfigurationError("thresholds must be positive")
        if self.left_action_unit <= 0 or self.right_action_unit <= 0:
            raise ConfigurationError("action units must be positive")
        if self.max_levels < 1:
            raise ConfigurationError("a configuration has at least one level")


def paper_model(**overrides) -> ModelConfig:
    """The bundled instance: three circles, minimal Morse data."""
    return ModelConfig(**overrides)
