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

from repro.httpreplay.message import HttpRequest, HttpResponse, TIME_SENSITIVE_HEADERS
from repro.httpreplay.session import AppSession, RecordedConnection, Transaction
from repro.httpreplay.recorder import RecordShell, ReplayArchive
from repro.httpreplay.replayer import ReplayShell
from repro.httpreplay.patterns import (
    PATTERN_BUILDERS,
    cnn_launch,
    cnn_click,
    imdb_launch,
    imdb_click,
    dropbox_launch,
    dropbox_click,
)
from repro.httpreplay.classify import FlowCategory, classify_session
from repro.httpreplay.engine import (
    TransportConfig,
    STANDARD_CONFIGS,
    ReplayEngine,
    AppReplayResult,
    replay_app,
)
from repro.httpreplay.oracles import ORACLES, oracle_response_times

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "TIME_SENSITIVE_HEADERS",
    "AppSession",
    "RecordedConnection",
    "Transaction",
    "RecordShell",
    "ReplayArchive",
    "ReplayShell",
    "PATTERN_BUILDERS",
    "cnn_launch",
    "cnn_click",
    "imdb_launch",
    "imdb_click",
    "dropbox_launch",
    "dropbox_click",
    "FlowCategory",
    "classify_session",
    "TransportConfig",
    "STANDARD_CONFIGS",
    "ReplayEngine",
    "AppReplayResult",
    "replay_app",
    "ORACLES",
    "oracle_response_times",
]
