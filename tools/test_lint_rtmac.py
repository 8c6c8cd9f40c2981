#!/usr/bin/env python3
"""Unit tests for tools/lint_rtmac.py: each rule must catch a seeded
violation, honor lint-ok suppressions, and respect its allowlist."""

import contextlib
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint_rtmac  # noqa: E402


def violations_in(checker, text, path=Path("src/fake.cpp")):
    return checker(path, text)


class WallClockRule(unittest.TestCase):
    def test_catches_steady_clock(self):
        v = violations_in(lint_rtmac.check_wall_clock,
                          "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual([x.rule for x in v], ["wall-clock"])

    def test_catches_time_nullptr(self):
        v = violations_in(lint_rtmac.check_wall_clock,
                          "seed = time(nullptr);\n")
        self.assertEqual(len(v), 1)

    def test_virtual_time_is_fine(self):
        v = violations_in(lint_rtmac.check_wall_clock,
                          "TimePoint t = sim_.now() + Duration::seconds(1);\n")
        self.assertEqual(v, [])

    def test_comment_mention_is_fine(self):
        v = violations_in(lint_rtmac.check_wall_clock,
                          "int x = 0;  // unlike steady_clock, virtual time\n")
        self.assertEqual(v, [])

    def test_suppression(self):
        v = violations_in(
            lint_rtmac.check_wall_clock,
            "auto t = std::chrono::steady_clock::now();"
            "  // lint-ok: wall-clock profiler only\n")
        self.assertEqual(v, [])


class NondetRngRule(unittest.TestCase):
    def test_catches_random_device(self):
        v = violations_in(lint_rtmac.check_nondet_rng,
                          "std::mt19937 g{std::random_device{}()};\n")
        self.assertEqual([x.rule for x in v], ["nondet-rng"])

    def test_catches_rand(self):
        v = violations_in(lint_rtmac.check_nondet_rng,
                          "int r = rand() % 6;\nsrand(42);\n")
        self.assertEqual(len(v), 2)

    def test_repo_rng_is_fine(self):
        v = violations_in(lint_rtmac.check_nondet_rng,
                          "Rng rng{seed, stream_id};\n"
                          "double u = rng.next_double();\n")
        self.assertEqual(v, [])


class UnorderedIterationRule(unittest.TestCase):
    def test_catches_iteration_over_member(self):
        text = ("std::unordered_map<int, double> weights_;\n"
                "void f() { for (const auto& [k, w] : weights_) use(k, w); }\n")
        v = violations_in(lint_rtmac.check_unordered_iteration, text)
        self.assertEqual([x.rule for x in v], ["unordered-iteration"])

    def test_lookup_is_fine(self):
        text = ("std::unordered_map<int, double> weights_;\n"
                "double g(int k) { return weights_.at(k); }\n")
        v = violations_in(lint_rtmac.check_unordered_iteration, text)
        self.assertEqual(v, [])

    def test_vector_iteration_is_fine(self):
        text = ("std::vector<double> xs_;\n"
                "void f() { for (double x : xs_) use(x); }\n")
        v = violations_in(lint_rtmac.check_unordered_iteration, text)
        self.assertEqual(v, [])

    def test_suppression(self):
        text = ("std::unordered_set<int> seen_;\n"
                "void f() { for (int s : seen_) total += s; }"
                "  // lint-ok: unordered-iteration commutative sum\n")
        v = violations_in(lint_rtmac.check_unordered_iteration, text)
        self.assertEqual(v, [])


class FloatEqualityRule(unittest.TestCase):
    def test_catches_literal_comparison(self):
        v = violations_in(lint_rtmac.check_float_equality,
                          "if (ratio == 1.0) return;\n")
        self.assertEqual([x.rule for x in v], ["float-equality"])

    def test_catches_double_variable_comparison(self):
        text = ("double mean = compute();\n"
                "if (mean == target) return;\n")
        v = violations_in(lint_rtmac.check_float_equality, text)
        self.assertEqual(len(v), 1)

    def test_integer_comparison_is_fine(self):
        v = violations_in(lint_rtmac.check_float_equality,
                          "if (count == 0) return;\n")
        self.assertEqual(v, [])

    def test_suppression(self):
        v = violations_in(
            lint_rtmac.check_float_equality,
            "if (x == 0.0) return 1.0;  // lint-ok: float-equality guard\n")
        self.assertEqual(v, [])


class RawAssertRule(unittest.TestCase):
    def test_catches_assert_and_include(self):
        text = "#include <cassert>\nvoid f() { assert(x > 0); }\n"
        v = violations_in(lint_rtmac.check_raw_assert, text)
        self.assertEqual(len(v), 2)

    def test_contracts_are_fine(self):
        text = ('#include "util/check.hpp"\n'
                "void f() { RTMAC_ASSERT(x > 0); RTMAC_REQUIRE(y >= 0); }\n")
        v = violations_in(lint_rtmac.check_raw_assert, text)
        self.assertEqual(v, [])

    def test_static_assert_is_fine(self):
        v = violations_in(lint_rtmac.check_raw_assert,
                          "static_assert(sizeof(int) == 4);\n")
        self.assertEqual(v, [])


class StdFunctionRule(unittest.TestCase):
    def test_catches_std_function_member(self):
        v = violations_in(lint_rtmac.check_std_function,
                          "std::function<void()> on_expire_;\n",
                          path=Path("src/mac/fake.hpp"))
        self.assertEqual([x.rule for x in v], ["std-function"])

    def test_catches_functional_include(self):
        v = violations_in(lint_rtmac.check_std_function,
                          "#include <functional>\n",
                          path=Path("src/sim/fake.hpp"))
        self.assertEqual(len(v), 1)

    def test_inplace_function_is_fine(self):
        v = violations_in(
            lint_rtmac.check_std_function,
            '#include "util/inplace_function.hpp"\n'
            "util::InplaceFunction<void()> on_expire_;\n")
        self.assertEqual(v, [])

    def test_comment_mention_is_fine(self):
        v = violations_in(lint_rtmac.check_std_function,
                          "int x;  // unlike std::function, stores inline\n")
        self.assertEqual(v, [])

    def test_suppression(self):
        v = violations_in(
            lint_rtmac.check_std_function,
            "using Factory = std::function<int()>;"
            "  // lint-ok: std-function copyable config-time factory\n")
        self.assertEqual(v, [])

    def test_scope_excludes_config_layers(self):
        # The rule's scope is the event hot path only; net/ and expfw/ keep
        # std::function for copyable observers and factories.
        self.assertEqual(lint_rtmac.RULE_SCOPES["std-function"],
                         ("src/sim", "src/phy", "src/mac"))


class IntervalInterfaceAllocRule(unittest.TestCase):
    def test_catches_vector_parameter(self):
        v = violations_in(
            lint_rtmac.check_interval_interface,
            "void begin_interval(IntervalIndex k,"
            " const std::vector<int>& arrivals);\n",
            path=Path("src/mac/fake.hpp"))
        self.assertEqual([x.rule for x in v], ["interval-interface-alloc"])

    def test_catches_multiline_signature(self):
        text = ("void begin_interval(IntervalIndex k,\n"
                "                    std::vector<int> arrivals,\n"
                "                    TimePoint interval_end);\n")
        v = violations_in(lint_rtmac.check_interval_interface, text,
                          path=Path("src/mac/fake.hpp"))
        self.assertEqual(len(v), 1)
        self.assertEqual(v[0].line, 1)

    def test_catches_allocating_return_type(self):
        v = violations_in(lint_rtmac.check_interval_interface,
                          "std::vector<int> end_interval();\n",
                          path=Path("src/mac/fake.hpp"))
        self.assertEqual(len(v), 1)

    def test_span_interface_is_fine(self):
        text = ("void begin_interval(IntervalIndex k,"
                " std::span<const int> arrivals, TimePoint end);\n"
                "void end_interval(std::span<int> delivered);\n")
        v = violations_in(lint_rtmac.check_interval_interface, text,
                          path=Path("src/mac/fake.hpp"))
        self.assertEqual(v, [])

    def test_call_site_is_fine(self):
        v = violations_in(
            lint_rtmac.check_interval_interface,
            "links_[n]->begin_interval(arrivals[n], interval_end);\n",
            path=Path("src/mac/fake.cpp"))
        self.assertEqual(v, [])

    def test_suppression_on_any_signature_line(self):
        text = ("void begin_interval(  // lint-ok: interval-interface-alloc"
                " config-time copy\n"
                "    std::vector<int> arrivals);\n")
        v = violations_in(lint_rtmac.check_interval_interface, text,
                          path=Path("src/mac/fake.hpp"))
        self.assertEqual(v, [])

    def test_scope_is_hot_path_layers(self):
        self.assertEqual(lint_rtmac.RULE_SCOPES["interval-interface-alloc"],
                         ("src/mac", "src/net"))


class TreeScanAndAllowlist(unittest.TestCase):
    def make_tree(self):
        root = Path(tempfile.mkdtemp(prefix="lint_rtmac_test_"))
        self.addCleanup(shutil.rmtree, root)
        (root / "src" / "util").mkdir(parents=True)
        (root / "src" / "expfw").mkdir(parents=True)
        return root

    def test_allowlisted_profiler_passes_wall_clock(self):
        root = self.make_tree()
        (root / "src" / "expfw" / "runner.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n")
        (root / "src" / "util" / "stopwatch.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(lint_rtmac.scan_tree(root), [])

    def test_unquarantined_wall_clock_fails(self):
        root = self.make_tree()
        (root / "src" / "mac").mkdir()
        (root / "src" / "mac" / "bad.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n")
        v = lint_rtmac.scan_tree(root)
        self.assertEqual([x.rule for x in v], ["wall-clock"])
        self.assertIn("mac/bad.cpp", str(v[0]))

    def test_obs_sketch_wall_clock_fails(self):
        # The streaming-observability files are NOT allowlisted: a sketch or
        # stream that ever timestamps with a wall clock would silently break
        # the byte-identical-across-jobs export guarantee, so the lint must
        # catch it there.
        root = self.make_tree()
        (root / "src" / "obs").mkdir()
        (root / "src" / "obs" / "sketch.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n")
        v = lint_rtmac.scan_tree(root)
        self.assertEqual([x.rule for x in v], ["wall-clock"])
        self.assertIn("obs/sketch.cpp", str(v[0]))

    def test_shard_api_outside_allowlist_fails(self):
        # Scheme/bench code must not reach into the shard-mode Medium API:
        # cross-shard state flows only through the coordinator's mailboxes.
        root = self.make_tree()
        (root / "src" / "mac").mkdir()
        (root / "src" / "mac" / "rogue.cpp").write_text(
            "medium.inject_remote_activity(rec);\n"
            "medium.clear_cut_outbox();\n")
        v = lint_rtmac.scan_tree(root)
        self.assertEqual([x.rule for x in v],
                         ["shard-isolation", "shard-isolation"])
        self.assertIn("mac/rogue.cpp", str(v[0]))

    def test_shard_api_in_medium_and_network_glue_passes(self):
        root = self.make_tree()
        (root / "src" / "phy").mkdir()
        (root / "src" / "net").mkdir()
        (root / "src" / "sim").mkdir()
        shard_calls = ("m.configure_shard(cfg);\n"
                       "m.register_remote_sense(speaker, nodes);\n"
                       "m.set_resolution_horizon(end);\n"
                       "m.cut_outbox();\n"
                       "m.clear_cut_outbox();\n"
                       "m.inject_remote_activity(rec);\n")
        (root / "src" / "phy" / "medium.cpp").write_text(shard_calls)
        (root / "src" / "net" / "network.cpp").write_text(shard_calls)
        (root / "src" / "sim" / "sharded_simulator.cpp").write_text(
            shard_calls)
        self.assertEqual(lint_rtmac.scan_tree(root), [])

    def test_shard_isolation_checker_direct(self):
        v = violations_in(lint_rtmac.check_shard_isolation,
                          "medium_->set_resolution_horizon(end);\n")
        self.assertEqual([x.rule for x in v], ["shard-isolation"])
        # Plain horizon-flavored identifiers and comments are fine.
        v = violations_in(
            lint_rtmac.check_shard_isolation,
            "double horizon = end;  // set_resolution_horizon is banned\n")
        self.assertEqual(v, [])
        # Suppression works like every other rule.
        v = violations_in(
            lint_rtmac.check_shard_isolation,
            "m.cut_outbox();  // lint-ok: shard-isolation test rig\n")
        self.assertEqual(v, [])

    def test_obs_stream_nondet_rng_fails(self):
        # Same guarantee, RNG flavor: compaction coins must come from the
        # seeded util Rng, never from rand()/random_device.
        root = self.make_tree()
        (root / "src" / "obs").mkdir()
        (root / "src" / "obs" / "stream.cpp").write_text(
            "int coin = rand() & 1;\n")
        v = lint_rtmac.scan_tree(root)
        self.assertEqual([x.rule for x in v], ["nondet-rng"])
        self.assertIn("obs/stream.cpp", str(v[0]))


@unittest.skipIf(lint_rtmac.find_compiler() is None, "no C++ compiler")
class HeaderSelfContainedRule(unittest.TestCase):
    def make_tree(self):
        root = Path(tempfile.mkdtemp(prefix="lint_rtmac_hdr_"))
        self.addCleanup(shutil.rmtree, root)
        (root / "src").mkdir()
        return root

    def test_catches_missing_include(self):
        root = self.make_tree()
        (root / "src" / "broken.hpp").write_text(
            "#pragma once\n"
            "inline std::string label() { return {}; }  // needs <string>\n")
        v = lint_rtmac.check_headers(root)
        self.assertEqual([x.rule for x in v], ["header-self-contained"])

    def test_self_contained_header_passes(self):
        root = self.make_tree()
        (root / "src" / "good.hpp").write_text(
            "#pragma once\n#include <string>\n"
            "inline std::string label() { return {}; }\n")
        self.assertEqual(lint_rtmac.check_headers(root), [])


class LayeringRule(unittest.TestCase):
    def make_tree(self, *dirs):
        root = Path(tempfile.mkdtemp(prefix="lint_rtmac_layer_"))
        self.addCleanup(shutil.rmtree, root)
        for d in dirs:
            (root / "src" / d).mkdir(parents=True)
        return root

    def test_back_edge_fails(self):
        root = self.make_tree("mac")
        (root / "src" / "mac" / "rogue.cpp").write_text(
            '#include "net/network.hpp"\n')
        v = lint_rtmac.check_layering(root)
        self.assertEqual([x.rule for x in v], ["layering"])
        self.assertIn("back-edge", v[0].message)
        self.assertIn("mac/rogue.cpp", str(v[0]))

    def test_downward_and_same_dir_includes_pass(self):
        root = self.make_tree("net", "mac")
        (root / "src" / "net" / "network.cpp").write_text(
            '#include "mac/scheme.hpp"\n#include "util/time.hpp"\n'
            '#include "net/topology.hpp"\n#include <vector>\n')
        (root / "src" / "mac" / "scheme.hpp").write_text(
            '#pragma once\n#include "local_helper.hpp"\n')
        self.assertEqual(lint_rtmac.check_layering(root), [])

    def test_declared_exception_passes_but_does_not_leak(self):
        # The obs/collect.cpp -> net edge is declared in LAYER_EXCEPTIONS;
        # the same edge from any other file must still be a violation.
        root = self.make_tree("obs")
        (root / "src" / "obs" / "collect.cpp").write_text(
            '#include "net/network.hpp"\n#include "mac/dp_link_mac.hpp"\n')
        (root / "src" / "obs" / "other.cpp").write_text(
            '#include "net/network.hpp"\n')
        v = lint_rtmac.check_layering(root)
        self.assertEqual([x.rule for x in v], ["layering"])
        self.assertIn("obs/other.cpp", str(v[0]))

    def test_header_cycle_fails(self):
        root = self.make_tree("sim")
        (root / "src" / "sim" / "a.hpp").write_text(
            '#pragma once\n#include "sim/b.hpp"\n')
        (root / "src" / "sim" / "b.hpp").write_text(
            '#pragma once\n#include "sim/a.hpp"\n')
        v = lint_rtmac.check_layering(root)
        self.assertEqual([x.rule for x in v], ["layering"])
        self.assertIn("cycle", v[0].message)
        self.assertIn("sim/a.hpp", v[0].message)
        self.assertIn("sim/b.hpp", v[0].message)

    def test_multiline_include_is_seen_whole(self):
        # A directive split with a backslash continuation is still one
        # logical line; the back-edge must be caught at its first line.
        root = self.make_tree("mac")
        (root / "src" / "mac" / "glue.cpp").write_text(
            '#include \\\n    "net/network.hpp"\nint x;\n')
        v = lint_rtmac.check_layering(root)
        self.assertEqual([(x.rule, x.line) for x in v], [("layering", 1)])

    def test_unknown_directory_fails(self):
        root = self.make_tree("widgets")
        (root / "src" / "widgets" / "w.cpp").write_text("int x;\n")
        v = lint_rtmac.check_layering(root)
        self.assertEqual([x.rule for x in v], ["layering"])
        self.assertIn("no declared layer", v[0].message)

    def test_unknown_include_target_fails(self):
        root = self.make_tree("mac")
        (root / "src" / "mac" / "m.cpp").write_text(
            '#include "widgets/w.hpp"\n')
        v = lint_rtmac.check_layering(root)
        self.assertEqual([x.rule for x in v], ["layering"])
        self.assertIn("no declared layer", v[0].message)

    def test_suppression(self):
        root = self.make_tree("mac")
        (root / "src" / "mac" / "glue.cpp").write_text(
            '#include "net/network.hpp"  // lint-ok: layering migration\n')
        self.assertEqual(lint_rtmac.check_layering(root), [])

    def test_real_tree_has_no_undeclared_back_edges(self):
        repo = Path(lint_rtmac.__file__).resolve().parent.parent
        self.assertEqual(lint_rtmac.check_layering(repo), [])


class OutputOrderingAndSummary(unittest.TestCase):
    def make_tree(self):
        root = Path(tempfile.mkdtemp(prefix="lint_rtmac_order_"))
        self.addCleanup(shutil.rmtree, root)
        (root / "src" / "core").mkdir(parents=True)
        (root / "src" / "mac").mkdir(parents=True)
        return root

    def run_main(self, root):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lint_rtmac.main(["--root", str(root), "--no-headers"])
        return rc, out.getvalue(), err.getvalue()

    def test_violations_sorted_by_path_line_rule(self):
        # scan_tree visits rule-by-rule (wall-clock before nondet-rng), so
        # unsorted output would list mac/z.cpp first; the printed order must
        # be (path, line, rule) regardless.
        root = self.make_tree()
        (root / "src" / "mac" / "z.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n")
        (root / "src" / "core" / "a.cpp").write_text(
            "int r = rand() % 6;\n")
        rc, out, _err = self.run_main(root)
        self.assertEqual(rc, 1)
        lines = out.strip().splitlines()
        self.assertEqual(len(lines), 2)
        self.assertIn("core/a.cpp", lines[0])
        self.assertIn("mac/z.cpp", lines[1])

    def test_summary_line_counts_per_rule(self):
        root = self.make_tree()
        (root / "src" / "mac" / "z.cpp").write_text(
            "auto t = std::chrono::steady_clock::now();\n"
            "int r = rand() % 6;\n")
        rc, _out, err = self.run_main(root)
        self.assertEqual(rc, 1)
        self.assertIn("2 violation(s) [nondet-rng=1, wall-clock=1]", err)

    def test_clean_tree_reports_clean(self):
        root = self.make_tree()
        (root / "src" / "core" / "ok.cpp").write_text("int x = 0;\n")
        rc, out, _err = self.run_main(root)
        self.assertEqual(rc, 0)
        self.assertIn("clean", out)


if __name__ == "__main__":
    unittest.main()
