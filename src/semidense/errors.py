"""Exception types shared across the pipeline."""


class CheiralityError(ValueError):
    """A point lies behind a camera (non-positive depth)."""


class VisibilityError(ValueError):
    """A point was queried in a view where it is not visible."""
