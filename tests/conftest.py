from hypothesis import settings

# The same examples on every run, and no per-example time limit: a slow
# machine must not turn a passing property into a flaky one.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
