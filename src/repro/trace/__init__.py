"""Request-lifecycle tracing, record/replay, and the scenario zoo."""
