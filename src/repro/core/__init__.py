"""The paper's contribution: the low-cost SBST methodology.

Implements Section 2 of the paper:

* :mod:`~repro.core.classification` — partition the processor's RT-level
  components into functional / control / hidden classes (Figure 2, step 1);
* :mod:`~repro.core.priority` — order components for test development by
  class, relative size, and instruction-level controllability/observability
  (Figure 2, step 2; Table 1);
* :mod:`~repro.core.testlib` — the library of small deterministic test sets
  that exploit each component's regular structure (Figure 4);
* :mod:`~repro.core.routines` — self-test routine generators that apply the
  library test sets with compact instruction loops;
* :mod:`~repro.core.methodology` — Phase A/B/C orchestration producing the
  complete self-test program (Figure 3);
* :mod:`~repro.core.campaign` — end-to-end fault-grading: execute the
  program on the traced CPU, replay every component's stimulus against its
  gate netlist, and aggregate the Table 4/5 results.
"""

from repro.core.classification import classify_components, classification_table
from repro.core.priority import (
    Accessibility,
    component_priority,
    test_development_order,
)
from repro.core.methodology import Phase, SelfTestMethodology, SelfTestProgram
from repro.core.campaign import (
    CampaignOutcome,
    grade_program,
    grade_traced,
    run_campaign,
    trace_program,
)

__all__ = [
    "classify_components",
    "classification_table",
    "Accessibility",
    "component_priority",
    "test_development_order",
    "Phase",
    "SelfTestMethodology",
    "SelfTestProgram",
    "CampaignOutcome",
    "grade_program",
    "grade_traced",
    "run_campaign",
    "trace_program",
]
