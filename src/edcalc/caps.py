"""The numbers that every command shares: the one resource cap and the exit codes."""

# counted in objects: nonzero patterns of a block's dual for the greedy, bases for
# the upper-bound search, elements of a closure for certificate verification
DEFAULT_ENUM_CAP = 1 << 24

# the exit codes of the command line; README's table says what each means
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_CERT = 5
EXIT_IOERR = 74  # EX_IOERR of sysexits.h
EXIT_PIPE = 141  # the shell's code for a process killed by SIGPIPE, 128 + 13
