"""Training: one SGD stage, and the recipe (Algorithm 1 for the slimmable families)."""
