"""Self-test of the benchmark's verdict check: a flipped verdict is caught.

Grades CTRL (a fraction of a second) and runs the same checks the
benchmark runs, first on the real verdicts and then on altered copies::

    python3 perfbench/test_golden.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from golden import (  # noqa: E402
    compare_prints,
    compare_table5,
    fingerprint,
    load_golden,
)
from repro.core.campaign import run_campaign  # noqa: E402
from repro.faultsim.differential import Detection  # noqa: E402
from repro.faultsim.options import GradeOptions  # noqa: E402
from run import Tally, _check_prints  # noqa: E402


class GoldenCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.golden = load_golden()
        cls.outcome = run_campaign(
            "A", components=["CTRL"], options=GradeOptions(collapse=True)
        )
        cls.detections = dict(cls.outcome.results["CTRL"].detections)

    def _problems(self, detections: dict[int, Detection]) -> list[str]:
        prints = {"CTRL": fingerprint(SimpleNamespace(detections=detections))}
        golden = {"CTRL": self.golden["A"]["components"]["CTRL"]}
        return compare_prints(golden, prints)

    def _first(self, detected: bool) -> int:
        return next(r for r, d in sorted(self.detections.items())
                    if d.detected == detected)

    def test_reference_verdicts_pass(self) -> None:
        self.assertEqual(self._problems(self.detections), [])

    def test_dropped_detection_is_caught(self) -> None:
        flipped = dict(self.detections)
        flipped[self._first(True)] = Detection(False, excited=True)
        self.assertEqual(len(self._problems(flipped)), 1)

    def test_moved_first_detect_cycle_is_caught(self) -> None:
        rep = self._first(True)
        old = self.detections[rep]
        moved = dict(self.detections)
        moved[rep] = Detection(True, old.cycle + 1, old.lanes, excited=True)
        self.assertIn("first_detect_hash", self._problems(moved)[0])

    def test_flipped_excitation_is_caught(self) -> None:
        rep = self._first(False)
        flipped = dict(self.detections)
        flipped[rep] = Detection(
            False, excited=not self.detections[rep].excited
        )
        self.assertIn("excited", self._problems(flipped)[0])

    def test_flip_fails_the_run_tally(self) -> None:
        flipped = dict(self.detections)
        flipped[self._first(True)] = Detection(False, excited=True)
        prints = {
            name: dict(p) for name, p in
            self.golden["A"]["components"].items()
        }
        prints["CTRL"] = fingerprint(SimpleNamespace(detections=flipped))
        tally = Tally()
        tally.check(10, _check_prints(
            self.golden, "A", {"prints": prints, "cycles": 5096}
        ))
        self.assertEqual((tally.attempted, tally.failed), (10, 1))

    def test_service_rows_are_checked(self) -> None:
        rows = self.outcome.table5()
        self.assertEqual(compare_table5(self.golden, "A", rows), [])
        altered = [dict(r) for r in rows]
        altered[0]["detected"] -= 1
        self.assertTrue(compare_table5(self.golden, "A", altered))
        unsummed = [dict(r) for r in rows]
        unsummed[-1]["detected"] += 1
        self.assertTrue(compare_table5(self.golden, "A", unsummed))


if __name__ == "__main__":
    unittest.main()
