"""A from-scratch numpy DNN framework.

This package stands in for PyTorch, which the reproduction does not depend
on: explicit forward/backward modules, im2col convolutions, SGD and npz
checkpointing — exactly what the paper's net (three width-sliced
convolutions and a sliced classifier, see :mod:`repro.slimmable`) and its
training algorithms build, plus the compiled inference plans that serve it.
"""
