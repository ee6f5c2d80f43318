"""Optimizers."""
