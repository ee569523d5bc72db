"""Default resource caps, shared by the algorithms and the command line."""

DEFAULT_DIM_CAP = 24  # largest dimension of a subspace whose elements are enumerated
DEFAULT_BASIS_CAP = 100_000  # largest number of bases searched exhaustively
