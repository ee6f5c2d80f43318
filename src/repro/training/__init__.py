"""Training algorithms: plain, incremental [3] and nested incremental (Alg. 1)."""
