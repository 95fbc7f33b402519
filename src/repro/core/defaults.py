"""The optimizer's default resolution, importable without numpy.

``repro.cli`` builds its argument parser from these, so the parser (and
``repro --help``) loads none of the numeric stack.
"""

#: Default number of weight blocks (the paper's resolution limiting: K is
#: reduced from raw weight counts to keep LUT construction under 1 % of a
#: time slice).
DEFAULT_BLOCK_COUNT = 120

#: Cap on the number of time steps spanning one time slice.  The actual
#: step is derived from the block times (see ``_choose_time_step`` in
#: :mod:`repro.core.placement`) so that spaces with different speeds stay
#: distinguishable after quantisation; the cap bounds DP memory/time,
#: mirroring the paper's resolution limiting.
DEFAULT_TIME_STEPS = 24000
