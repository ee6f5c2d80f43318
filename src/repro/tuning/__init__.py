"""Trace-driven offline autotuning.

``tune()`` searches :class:`SchedulerConfig` space against the
virtual-time simulator on any replayable trace — optionally under a
fault plan — and the ``repro-tuned-config`` artifact ships the winner
to ``replay --config``.  See :mod:`repro.tuning.tuner` for the search,
:mod:`repro.tuning.space` for what is searched (and why nothing else is),
and :mod:`repro.tuning.artifact` for the wire format.
"""
