"""Exception hierarchy shared by all surfep modules.

Every validation failure carries enough data (a witness element, triple, or
index) to reproduce the failure by hand.
"""

from __future__ import annotations


class SurfepError(Exception):
    """Base class for all structured errors raised by this package."""


# --- group construction -----------------------------------------------------

class NotAssociative(SurfepError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        super().__init__(f"multiplication table not associative at triple {triple}")


class NoIdentity(SurfepError):
    def __init__(self) -> None:
        super().__init__("multiplication table has no two-sided identity")


class NoInverse(SurfepError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAHomomorphism(SurfepError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"map is not multiplicative at pair {pair}")


class NotASubgroup(SurfepError):
    def __init__(self, detail: str):
        super().__init__(f"member set is not a subgroup: {detail}")


class InvalidAction(SurfepError):
    def __init__(self, detail: str):
        super().__init__(f"invalid group action: {detail}")


# --- surface tuples and words ----------------------------------------------

class RelationViolated(SurfepError):
    def __init__(self, value: int):
        self.value = value
        super().__init__(
            f"product of commutators is element {value}, not the identity"
        )


class IndexOutOfRange(SurfepError):
    def __init__(self, index: int, genus: int):
        self.index = index
        self.genus = genus
        super().__init__(f"generator index {index} out of range for genus {genus}")


class PositionOutOfRange(SurfepError):
    def __init__(self, src: int, dst: int, genus: int):
        super().__init__(
            f"need 1 <= dst <= src <= genus, got dst={dst}, src={src}, genus={genus}"
        )


class NoRepeatedPair(SurfepError):
    def __init__(self, multiplicity: int):
        self.multiplicity = multiplicity
        super().__init__(f"no value pair repeats {multiplicity} times")


class GenusTooSmall(SurfepError):
    def __init__(self, needed: int, got: int):
        self.needed = needed
        self.got = got
        super().__init__(f"genus {got} below required bound {needed}")


class GenusMismatch(SurfepError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"genus mismatch: expected {expected}, got {got}")


class TargetMismatch(SurfepError):
    def __init__(self, name: str, expected: int, got: int):
        super().__init__(
            f"{name} must map into H (order {expected}), not into a group of "
            f"order {got}"
        )


# --- embedding problems and solver -----------------------------------------

class BetaNotSurjective(SurfepError):
    def __init__(self) -> None:
        super().__init__("the reference surjection onto B does not cover B")


class BetaNRestrictionNotSurjective(SurfepError):
    def __init__(self, image_size: int, needed: int):
        self.image_size = image_size
        self.needed = needed
        super().__init__(
            f"restriction of the reference map to N has image of order "
            f"{image_size} < {needed}"
        )


class NotASolution(SurfepError):
    def __init__(self, generator: str):
        self.generator = generator
        super().__init__(f"candidate is not a solution: compatibility fails at {generator}")


class HypothesisViolated(SurfepError):
    def __init__(self, which: str, witness=None):
        self.which = which
        self.witness = witness
        extra = f" (witness {witness})" if witness is not None else ""
        super().__init__(f"construction hypothesis violated: {which}{extra}")


# --- oracles ----------------------------------------------------------------

class BudgetExceeded(SurfepError):
    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"search needs {needed} candidates, budget is {budget}")
