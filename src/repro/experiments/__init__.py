"""Experiment harnesses: Fig. 2 regeneration, calibration, reporting."""
