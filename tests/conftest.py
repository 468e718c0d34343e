from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result depends only on the code under test.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
