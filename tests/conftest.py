"""Hypothesis profiles for the tier-1 suite.

Local runs use Hypothesis's default profile. The CI workflow selects
``--hypothesis-profile=ci``: more examples per property, derandomized so a
failure it finds reproduces on the next run, with the blob that replays it
printed. Without Hypothesis installed only its property modules fail to
collect; the rest of the suite still runs.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, max_examples=500, print_blob=True)
