"""Declarative workloads and the Session interpreter.

The workload layer separates *what to measure* from *how it runs*:

* :mod:`repro.workload.spec` — frozen, validated, JSON-round-trippable
  descriptions of transfers and named batches, over the
  :class:`PathSpec`/:class:`ConditionSpec` location vocabulary that
  :mod:`repro.linkem` defines (re-exported here);
* :mod:`repro.workload.report` — :class:`TransferReport`, the single
  picklable outcome type shared by the Session, the sweep engine, and
  the result cache;
* :mod:`repro.workload.session` — :class:`Session`, the one
  interpreter that turns a spec into a scenario, drives the transfer,
  and returns the report.

>>> from repro.workload import Session, TransferSpec
>>> from repro.linkem import make_conditions
>>> spec = TransferSpec(kind="tcp", condition=make_conditions()[0],
...                     nbytes=100_000, path="wifi", seed=7)
>>> report = Session().run(spec)
>>> report.completed
True
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ConditionSpec": ".spec", "PathSpec": ".spec", "TransferSpec": ".spec",
    "WorkloadSpec": ".spec", "config_overrides": ".spec",
    "TransferReport": ".report", "Session": ".session",
})
