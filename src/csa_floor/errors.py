"""The package's base error class."""


class CsaFloorError(ValueError):
    """Input the package cannot use: a flag, law, plan, design point or
    argument out of its domain. The CLI exits 1 on this class and 2 on any
    other exception, so a fault inside numpy or the package is not mistaken
    for bad input."""
