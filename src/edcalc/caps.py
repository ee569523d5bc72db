"""The one resource cap, shared by the algorithms and the command line."""

# counted in objects: nonzero patterns of a block's dual for the greedy, bases for
# the upper-bound search, elements of a closure for certificate verification
DEFAULT_ENUM_CAP = 1 << 24
