// rt::TraceRecorder: every executed action of a clean run — one send and
// one receive per scheduled block — must land on the executing worker's
// lane with sane timestamps and schedule coordinates, and export as
// well-formed chrome://tracing "X" events.
#include "rt/tracing.hpp"

#include "ft/fault_model.hpp"
#include "ft/injector.hpp"
#include "routing/schedule_export.hpp"
#include "rt/async_player.hpp"
#include "rt/plan.hpp"
#include "trees/sbt.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace hcube::rt {
namespace {

using routing::BroadcastDiscipline;
using sim::PortModel;
using sim::Schedule;

Schedule small_schedule() {
    return routing::make_tree_broadcast(
        trees::build_sbt(3, 0), BroadcastDiscipline::paced, 3,
        PortModel::one_port_full_duplex);
}

/// Shared checks: one send + one recv event per scheduled block, ordered
/// stamps, in-range coordinates, every lane owned by a real worker.
void expect_complete_trace(const TraceRecorder& recorder, const Plan& plan,
                           std::uint64_t sends) {
    EXPECT_EQ(recorder.event_count(), 2 * sends);
    std::uint64_t send_events = 0;
    for (std::uint32_t w = 0; w < recorder.workers(); ++w) {
        for (const TraceEvent& e : recorder.lane(w)) {
            EXPECT_LE(e.t0_ns, e.t1_ns);
            EXPECT_LT(e.channel, plan.channel_count);
            EXPECT_LT(e.packet, plan.packet_count);
            EXPECT_LT(e.cycle, plan.cycles);
            send_events += e.kind == TraceKind::send ? 1 : 0;
        }
    }
    EXPECT_EQ(send_events, sends);
}

TEST(RtTrace, AsyncEngineRecordsEveryAction) {
    const Schedule schedule = small_schedule();
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 3);
    TraceRecorder recorder(plan.workers);

    AsyncPlayer player(plan);
    player.set_trace(&recorder);
    const PlayStats stats = player.play();
    ASSERT_TRUE(stats.clean());
    expect_complete_trace(recorder, plan, schedule.sends.size());
}

TEST(RtTrace, ResetClearsEventsAndDetachedRunsRecordNothing) {
    const Schedule schedule = small_schedule();
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    TraceRecorder recorder(plan.workers);

    AsyncPlayer player(plan);
    player.set_trace(&recorder);
    ASSERT_TRUE(player.play().clean());
    EXPECT_GT(recorder.event_count(), 0u);

    recorder.reset();
    EXPECT_EQ(recorder.event_count(), 0u);

    player.set_trace(nullptr);
    ASSERT_TRUE(player.play().clean());
    EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(RtTrace, SharedEpochMergesTwoEnginesIntoOneTimeline) {
    const Schedule schedule = small_schedule();
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    TraceRecorder recorder(plan.workers);

    // Two players of the plan record into one recorder, on one epoch.
    AsyncPlayer first(plan);
    first.set_trace(&recorder);
    ASSERT_TRUE(first.play().clean());
    AsyncPlayer second(plan);
    second.set_trace(&recorder);
    ASSERT_TRUE(second.play().clean());

    EXPECT_EQ(recorder.event_count(), 4 * schedule.sends.size());
}

TEST(RtTrace, ChromeExportEmitsWellFormedCompleteEvents) {
    const Schedule schedule = small_schedule();
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    TraceRecorder recorder(plan.workers);

    AsyncPlayer player(plan);
    player.set_trace(&recorder);
    ASSERT_TRUE(player.play().clean());

    const std::string path =
        testing::TempDir() + "hcube_trace_test.json";
    {
        JsonArrayWriter json(path);
        ASSERT_TRUE(json.ok());
        recorder.append_chrome_events(json, 7, "async");
        ASSERT_TRUE(json.close());
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path.c_str());

    // Array shape + the Trace Event Format fields chrome://tracing needs.
    ASSERT_GE(text.size(), 3u);
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 2), "]\n");
    const auto count_of = [&](const std::string& needle) {
        std::size_t count = 0;
        for (std::size_t pos = text.find(needle);
             pos != std::string::npos;
             pos = text.find(needle, pos + needle.size())) {
            ++count;
        }
        return count;
    };
    EXPECT_EQ(count_of("\"ph\": \"X\""), recorder.event_count());
    EXPECT_EQ(count_of("\"pid\": 7"), recorder.event_count());
    EXPECT_EQ(count_of("\"cat\": \"async\""), recorder.event_count());
    EXPECT_GT(count_of("\"ts\":"), 0u);
    EXPECT_GT(count_of("\"dur\":"), 0u);
    EXPECT_EQ(count_of("\"name\": \"send c"),
              static_cast<std::size_t>(schedule.sends.size()));
}

TEST(RtTrace, WriteChromeTraceIsAStandaloneValidFile) {
    const Schedule schedule = small_schedule();
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);
    TraceRecorder recorder(plan.workers);

    AsyncPlayer player(plan);
    player.set_trace(&recorder);
    ASSERT_TRUE(player.play().clean());

    const std::string path =
        testing::TempDir() + "hcube_trace_oneshot.json";
    ASSERT_TRUE(recorder.write_chrome_trace(path, 3, "oneshot"));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path.c_str());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 2), "]\n");
    EXPECT_NE(text.find("\"cat\": \"oneshot\""), std::string::npos);
}

TEST(RtTrace, AbortedRunFlushesPartialTraceToAbortPath) {
    // A killed link with abort_on_fault: play() comes back dirty without
    // ever returning control between the fault and the teardown, so the
    // recorder itself must flush the partial timeline to its abort path —
    // the post-mortem a crashed run leaves behind.
    const Schedule schedule = routing::make_tree_broadcast(
        trees::build_sbt(4, 0), BroadcastDiscipline::paced, 6,
        PortModel::one_port_full_duplex);
    const Plan plan = compile_plan(schedule, DataMode::move, 16, 2);

    ft::FaultPlan faults;
    faults.kill_link(0, 1, 0);
    ft::FaultInjector injector(faults);
    injector.arm(plan);

    TraceRecorder recorder(plan.workers);
    EXPECT_FALSE(recorder.flush_abort()); // unarmed: nothing to write
    const std::string path =
        testing::TempDir() + "hcube_trace_abort.json";
    recorder.set_abort_path(path);
    EXPECT_EQ(recorder.abort_path(), path);

    AsyncPlayer player(plan);
    player.set_trace(&recorder);
    player.set_detection(
        {.arrival_timeout_us = 1000, .abort_on_fault = true});
    player.set_fault_hook(&injector);
    const PlayStats stats = player.play();
    ASSERT_FALSE(stats.clean());

    // The partial trace landed at the abort path as a well-formed chrome
    // trace: fewer events than a clean run, but every one parseable.
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no abort trace at " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path.c_str());
    ASSERT_GE(text.size(), 3u);
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.substr(text.size() - 2), "]\n");
    EXPECT_NE(text.find("\"cat\": \"aborted\""), std::string::npos);
    EXPECT_GT(recorder.event_count(), 0u);
    EXPECT_LT(recorder.event_count(), 2 * schedule.sends.size());
}

} // namespace
} // namespace hcube::rt
