import json

import numpy as np

from banachkit import GrowthSequence, NormedSpace, lp
from banachkit.estimates import AverageResult, Estimate, GaugeValue
from banachkit.gauges import alternative_classify
from banachkit.pipeline import BlockCertificate, BlockSelection, RegroupReport, plan_parameters
from banachkit.reports import CheckRecord
from banachkit.summing import ComparisonReport, PremiseReport, constant_ledger


def test_record_key_order_is_the_report_format():
    # the key lists of the JSON reports, in the order the files carry them
    g = GrowthSequence.power(0.5)
    avg = AverageResult(1.5, "monte-carlo", 10, np.float64(0.1), 3)
    sel = BlockSelection([np.int64(1), 2], avg, avg, 1.0, 1.0, True)
    premise = PremiseReport(True, 1.0, 1.0, 0.1, [], avg, 1.0)
    plan = plan_parameters(32, g, 2)
    cases = [
        (Estimate(1.0, "lower", witness=np.ones(2), meta={"upper": 2.0}),
         ["value", "direction", "witness", "budget", "seed", "stderr", "meta"]),
        (avg, ["value", "method", "samples", "stderr", "seed"]),
        (GaugeValue(1.0, witness=np.eye(2), budget=4, seed=0, meta={"kind": "summing"}),
         ["value", "direction", "witness", "budget", "seed", "meta"]),
        (CheckRecord("a", "ASSERT", "pass", 1.0, 2.0),
         ["name", "tier", "verdict", "measured", "bound", "inputs", "seed", "runtime",
          "extra"]),
        (plan, ["n_raw", "r", "M", "n", "N", "s", "p", "k", "cond1_ok", "cond1",
                "cond2_ok", "cond2"]),
        (sel, ["indices", "average", "gaussian", "target", "target_strict", "met"]),
        (RegroupReport(2, 1.0, True, {"sqrt_k": 1.4}, 1.0, avg, True),
         ["k", "alpha", "precondition_ok", "precondition", "predicted", "measured",
          "dominated"]),
        (BlockCertificate(plan, {"s2": 1.0}, premise, [sel], [], avg, 0.1, 0.0, True, 0, 10),
         ["plan", "constants", "premise", "blocks", "levels", "final_measured",
          "final_floor", "overall_floor", "verdict", "master_seed", "samples", "budget",
          "notes"]),
        (premise, ["accepted", "weak2_upper", "min_image_norm", "floor", "reasons",
                   "average", "implied_constant"]),
        (ComparisonReport(1.0, 2.0, True, 2.0, avg, "lower"),
         ["lhs", "rhs", "holds", "slack", "average", "wc_direction"]),
        (constant_ledger(g, H=1.0),
         ["s2", "s3", "s4", "l_t", "t", "m_r", "r", "h", "k", "d", "a", "b", "c1", "c2",
          "c", "note"]),
        (alternative_classify(NormedSpace(lp(2), 4).space, 1.0, 8),
         ["case", "p", "n_max", "n0", "q", "chain", "inclusion_constant", "cn_bound",
          "cn_limit"]),
    ]
    for obj, keys in cases:
        doc = obj.to_dict()
        assert list(doc) == keys, type(obj).__name__
        json.dumps(doc)  # plain Python all the way down
    cert = cases[7][0].to_dict()
    assert cert["blocks"][0]["indices"] == [1, 2]
    assert cert["final_measured"] == {"value": 1.5, "method": "monte-carlo", "samples": 10,
                                      "stderr": 0.1, "seed": 3}
