"""Detection of malicious clients from stored training history.

The paper's poisoning-recovery scenario starts from "once the attacker
is detected" (§I) — detection itself is delegated to prior work
(FLDetector, Zhang et al., KDD'22).  This package closes that loop with
a history-based detector: a data poisoner's stored directions disagree
with each round's element-wise majority more often than a benign
client's do.

Because the detector consumes the *stored* record, it runs offline on
exactly the data the unlearning server already keeps — including the
2-bit sign store (directions are enough to rank suspiciousness).
"""

from repro.defenses.detection import (
    DetectionReport,
    client_suspicion_scores,
    detect_malicious_clients,
)

__all__ = [
    "DetectionReport",
    "client_suspicion_scores",
    "detect_malicious_clients",
]
