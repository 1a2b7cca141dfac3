from hypothesis import settings

# Property tests run derandomized, so every run of the suite sees the same
# examples, with few examples and no per-example deadline, so the suite stays
# within its time budget on a slow machine.  No example database is written.
settings.register_profile(
    "suite", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("suite")
