#!/usr/bin/env python3
"""Unit tests for the pure logic of tools/bench_check.py: baseline schema
validation and the merge-style --update document builder.  No amopt
binary is needed; everything runs on fabricated documents.

Run directly (``python3 tools/bench_check_test.py``) or via ctest
(``bench_check_unit``).
"""

import importlib.util
import os
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_check", os.path.join(_HERE, "bench_check.py"))
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


class ValidateBaselineTest(unittest.TestCase):
    def make_baseline(self):
        return {
            "tolerance": 1.15,
            "presets": {
                "uniform/running_example": {
                    "wall_ns": 123456,
                    "counters": {"dfa.solves": 7},
                },
            },
        }

    def test_valid_baseline(self):
        self.assertEqual(
            bench_check.validate_baseline(self.make_baseline()), [])

    def test_bad_tolerance(self):
        doc = self.make_baseline()
        doc["tolerance"] = 0.5
        self.assertTrue(bench_check.validate_baseline(doc))

    def test_bad_counter_value(self):
        doc = self.make_baseline()
        doc["presets"]["uniform/running_example"]["counters"]["x"] = "many"
        self.assertTrue(bench_check.validate_baseline(doc))

    def test_valid_history_section(self):
        doc = self.make_baseline()
        doc["history"] = {"file": "bench/BENCH_history.jsonl"}
        self.assertEqual(bench_check.validate_baseline(doc), [])

    def test_history_must_be_object(self):
        doc = self.make_baseline()
        doc["history"] = "bench/BENCH_history.jsonl"
        self.assertTrue(any("history: not an object" in e
                            for e in bench_check.validate_baseline(doc)))

    def test_history_needs_file_pointer(self):
        doc = self.make_baseline()
        doc["history"] = {"_comment": "pointer lost"}
        self.assertTrue(any("history: missing file pointer" in e
                            for e in bench_check.validate_baseline(doc)))


class BuildBaselineDocTest(unittest.TestCase):
    RESULTS = {"uniform/running_example": {"wall_ns": 42,
                                           "counters": {"dfa.solves": 1}}}

    def test_preserves_unknown_sections(self):
        old = {"presets": {}, "tolerance": 1.0,
               "my_custom_section": {"keep": "me"}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(doc["my_custom_section"], {"keep": "me"})
        self.assertEqual(doc["presets"], self.RESULTS)
        self.assertEqual(doc["tolerance"], bench_check.TOLERANCE)

    def test_preserves_history_pointer(self):
        old = {"presets": {}, "tolerance": 1.0,
               "history": {"file": "bench/BENCH_history.jsonl"}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(doc["history"],
                         {"file": "bench/BENCH_history.jsonl"})
        self.assertEqual(bench_check.validate_baseline(doc), [])

    def test_refreshes_wall_ns(self):
        old = {"presets": {"uniform/running_example": {
            "wall_ns": 999999, "counters": {"dfa.solves": 1}}}}
        doc = bench_check.build_baseline_doc(old, self.RESULTS)
        self.assertEqual(
            doc["presets"]["uniform/running_example"]["wall_ns"], 42)

    def test_result_validates(self):
        doc = bench_check.build_baseline_doc({}, self.RESULTS)
        self.assertEqual(bench_check.validate_baseline(doc), [])


if __name__ == "__main__":
    unittest.main()
