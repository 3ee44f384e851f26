"""HTTP record-and-replay (the paper's Mahimahi workflow, §4–§5).

* :mod:`repro.httpreplay.message` — HTTP request/response model.
* :mod:`repro.httpreplay.session` — recorded app sessions: connections,
  transactions, byte counts.
* :mod:`repro.httpreplay.recorder` / :mod:`repro.httpreplay.replayer` —
  RecordShell / ReplayShell analogs (request matching that ignores
  time-sensitive headers).
* :mod:`repro.httpreplay.patterns` — synthetic CNN/IMDB/Dropbox app
  traffic (Fig. 17).
* :mod:`repro.httpreplay.classify` — short-flow vs long-flow dominated
  categorization.
* :mod:`repro.httpreplay.engine` — replays a session over emulated
  links with any of the paper's six transport configurations.
* :mod:`repro.httpreplay.oracles` — the five oracle schemes of
  Figs. 19 and 21.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "HttpRequest": ".message", "HttpResponse": ".message",
    "TIME_SENSITIVE_HEADERS": ".message",
    "AppSession": ".session", "RecordedConnection": ".session",
    "Transaction": ".session",
    "RecordShell": ".recorder", "ReplayArchive": ".recorder",
    "ReplayShell": ".replayer",
    "PATTERN_BUILDERS": ".patterns", "cnn_launch": ".patterns",
    "cnn_click": ".patterns", "imdb_launch": ".patterns",
    "imdb_click": ".patterns", "dropbox_launch": ".patterns",
    "dropbox_click": ".patterns",
    "FlowCategory": ".classify", "classify_session": ".classify",
    "TransportConfig": ".engine", "STANDARD_CONFIGS": ".engine",
    "ReplayEngine": ".engine", "AppReplayResult": ".engine",
    "replay_app": ".engine",
    "ORACLES": ".oracles", "oracle_response_times": ".oracles",
})
