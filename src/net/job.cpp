#include "net/job.hpp"

#include "common/check.hpp"
#include "common/endian.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "rt/expected.hpp"
#include "sim/cycle.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace hcube::net {

namespace {

struct CompiledJob {
    svc::GeneratedSchedule gen;
    rt::Plan plan;
    std::uint64_t fp = 0;
};

CompiledJob compile(const JobSpec& spec) {
    HCUBE_ENSURE_MSG(spec.procs >= 1 &&
                         spec.procs <= (std::uint32_t{1} << spec.sig.n),
                     "procs must be in [1, 2^n]");
    CompiledJob job;
    job.gen = svc::make_schedule(spec.sig);
    job.plan = rt::compile_plan(job.gen.exec, job.gen.mode,
                                spec.sig.block_elems, spec.procs);
    job.fp = rt::schedule_fingerprint(job.gen.exec);
    return job;
}

Endpoint control_endpoint(const JobSpec& spec) {
    return Endpoint::unix_path(spec.dir + "/ctl.sock");
}

Endpoint data_endpoint(const JobSpec& spec, std::uint32_t rank,
                       std::uint16_t port) {
    if (spec.transport == ft::TransportClass::uds) {
        return Endpoint::unix_path(spec.dir + "/peer" +
                                   std::to_string(rank) + ".sock");
    }
    return Endpoint::tcp("127.0.0.1", port);
}

void set_recv_timeout(int fd, int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<decltype(tv.tv_usec)>((ms % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// The rank-side protocol, shared by fork and exec spawning. Returns the
/// child's exit code; never throws (the caller _exit()s with the code).
int child_main(const JobSpec& spec, std::uint32_t rank,
               const CompiledJob& job, int listen_fd,
               const std::vector<Endpoint>& endpoints) noexcept {
    try {
        // Fork-mode children inherit whatever the parent recorded before
        // launch; baseline it away so the METRICS frame carries only this
        // rank's own activity.
        const obs::RegistrySnapshot obs_base = obs::registry().snapshot();
        const ft::DetectConfig detect = effective_detect(spec);
        PeerBus::Params bus_params;
        bus_params.reliable = spec.reliable;
        bus_params.faults = spec.faults;
        bus_params.plan_fp = job.fp;
        PeerBus bus(job.plan, rank, spec.procs, bus_params);
        SocketChannelBank bank(job.plan, rank, bus);
        bus.set_ingress([&bank](std::uint32_t c, std::uint32_t p,
                                std::span<const double> b, std::uint64_t ck) {
            return bank.push_received(c, p, b, ck);
        });
        bus.connect_mesh(listen_fd, endpoints);
        ::close(listen_fd);

        // Mesh is up: report in and wait for the race-free start signal.
        const int ctl = connect_endpoint(control_endpoint(spec), 10'000);
        set_recv_timeout(ctl, 60'000);
        std::vector<std::uint8_t> frame;
        encode_hello(frame, {rank, job.fp});
        if (write_frame(ctl, frame) != IoStatus::ok) {
            ::close(ctl);
            return 3;
        }
        if (read_frame(ctl, frame) != IoStatus::ok ||
            frame_type(frame) != MsgType::go) {
            ::close(ctl);
            return 3;
        }

        bus.start();
        NetPlayer player(job.plan, rank, bank, detect, spec.transport);
        const NetPlayStats st = player.play();

        // Drain before reporting: a peer may still need our retransmits
        // acked away. Sized to outlast the full retry ladder.
        const auto flush_budget = std::chrono::milliseconds(
            2'000 + 2 * (detect.arrival_timeout_us / 1'000));
        (void)bus.flush(flush_budget);

        ReportMsg report;
        report.rank = rank;
        report.play = st.play;
        report.wire = bus.counters();
        report.fault = st.fault;
        encode_report(frame, report);
        bool ctl_ok = write_frame(ctl, frame) == IoStatus::ok;

        // Dump every owned slot's final bytes (copy-through: every owned
        // slot has a materialized block).
        for (std::uint64_t s = 0; ctl_ok && s < job.plan.total_slots; ++s) {
            const node_t node = job.plan.slot_node[s];
            if (!player.owns(node)) {
                continue;
            }
            const std::span<const double> block =
                player.block(node, job.plan.slot_packet[s]);
            if (block.empty()) {
                continue;
            }
            encode_dump(frame, s, block);
            ctl_ok = write_frame(ctl, frame) == IoStatus::ok;
        }
        if (ctl_ok) {
            obs::RegistrySnapshot delta = obs::registry().snapshot();
            delta.subtract(obs_base);
            encode_metrics(frame, delta);
            ctl_ok = write_frame(ctl, frame) == IoStatus::ok;
        }
        encode_bare(frame, MsgType::fin);
        ctl_ok = ctl_ok && write_frame(ctl, frame) == IoStatus::ok;

        // Keep the io thread alive until every rank has finished: the BYE
        // only arrives after the last FIN, so nobody's retransmit or
        // re-ack partner disappears early.
        int code = ctl_ok ? 0 : 3;
        if (ctl_ok && (read_frame(ctl, frame) != IoStatus::ok ||
                       frame_type(frame) != MsgType::bye)) {
            code = 3;
        }
        bus.stop();
        ::close(ctl);
        return code;
    } catch (...) {
        return 1;
    }
}

void append_error(std::string& error, const std::string& msg) {
    if (error.empty()) {
        error = msg;
    }
}

} // namespace

ft::DetectConfig effective_detect(const JobSpec& spec) {
    if (spec.arrival_timeout_us != 0) {
        return {.arrival_timeout_us = spec.arrival_timeout_us,
                .abort_on_fault = true};
    }
    return ft::DetectConfig::for_transport(spec.transport);
}

std::span<const double> JobResult::block(const rt::Plan& plan, node_t node,
                                         packet_t packet) const {
    const std::uint64_t slot = plan.slot_of(node, packet);
    if (slot == rt::Plan::kNoSlot || slot >= total_slots ||
        have[static_cast<std::size_t>(slot)] == 0) {
        return {};
    }
    return {memory.data() + static_cast<std::size_t>(slot) * block_elems,
            block_elems};
}

namespace {

/// A job's assembled image, read the way rt/expected.hpp reads a player.
struct JobImage {
    const rt::Plan& plan;
    const JobResult& result;

    [[nodiscard]] std::span<const double>
    slot_block(std::uint64_t slot) const {
        return result.block(plan, plan.slot_node[slot],
                            plan.slot_packet[slot]);
    }
    [[nodiscard]] std::span<const double> block(node_t node,
                                                packet_t packet) const {
        return result.block(plan, node, packet);
    }
};

} // namespace

bool image_follows_rule(const JobSpec& spec, const JobResult& result) {
    const CompiledJob job = compile(spec);
    if (result.total_slots != job.plan.total_slots ||
        result.block_elems != job.plan.block_elems ||
        result.have.size() != result.total_slots ||
        result.memory.size() != result.total_slots * result.block_elems) {
        return false;
    }
    const JobImage image{job.plan, result};
    if (job.gen.mode == rt::DataMode::combine) {
        return rt::check_combine_run(job.plan, job.gen.exec,
                                     job.gen.exec.initial_holder[0], {},
                                     image)
            .has_value();
    }
    return rt::check_move_run(
        job.plan, sim::execute_schedule(job.gen.feasibility, spec.sig.model),
        image);
}

int run_child(const JobSpec& spec, std::uint32_t rank) {
    HCUBE_ENSURE_MSG(!spec.dir.empty(), "run_child requires spec.dir");
    HCUBE_ENSURE_MSG(spec.transport == ft::TransportClass::uds ||
                         spec.base_port != 0,
                     "exec mode over tcp requires an explicit base_port");
    HCUBE_ENSURE(rank < spec.procs);
    const CompiledJob job = compile(spec);
    std::vector<Endpoint> endpoints;
    endpoints.reserve(spec.procs);
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        endpoints.push_back(data_endpoint(
            spec, r, static_cast<std::uint16_t>(spec.base_port + r)));
    }
    const int listen_fd = listen_endpoint(endpoints[rank]);
    return child_main(spec, rank, job, listen_fd, endpoints);
}

JobResult run_job(const JobSpec& spec_in) {
    JobSpec spec = spec_in;
    const CompiledJob job = compile(spec);
    const bool fork_mode = spec.exec_argv.empty();

    // Socket directory: caller-provided or a private mkdtemp.
    bool own_dir = false;
    if (spec.dir.empty()) {
        const char* base = std::getenv("TMPDIR");
        std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                           "/hcnet.XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        HCUBE_ENSURE_MSG(::mkdtemp(buf.data()) != nullptr,
                         "mkdtemp failed for the socket directory");
        spec.dir = buf.data();
        own_dir = true;
    }
    HCUBE_ENSURE_MSG(fork_mode || spec.transport == ft::TransportClass::uds ||
                         spec.base_port != 0,
                     "exec mode over tcp requires an explicit base_port");

    const Endpoint control_ep = control_endpoint(spec);
    const int control_lfd = listen_endpoint(control_ep);

    // Data listeners. Fork mode pre-binds every rank's listener here —
    // children inherit the fds (no bind race, and TCP port 0 resolves to
    // real ephemeral ports before anyone needs to connect).
    std::vector<int> data_lfd(spec.procs, -1);
    std::vector<Endpoint> endpoints(spec.procs);
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        endpoints[r] = data_endpoint(
            spec, r, static_cast<std::uint16_t>(spec.base_port + r));
        if (fork_mode) {
            data_lfd[r] = listen_endpoint(endpoints[r]);
            if (spec.transport == ft::TransportClass::tcp &&
                spec.base_port == 0) {
                endpoints[r].port = local_port(data_lfd[r]);
            }
        }
    }

    // Spawn.
    std::fflush(nullptr); // no buffered stdio duplicated into children
    std::vector<pid_t> pids(spec.procs, -1);
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        const pid_t pid = ::fork();
        HCUBE_ENSURE_MSG(pid >= 0, "fork failed");
        if (pid != 0) {
            pids[r] = pid;
            continue;
        }
        // ---- child ----
        ::close(control_lfd);
        if (fork_mode) {
            for (std::uint32_t q = 0; q < spec.procs; ++q) {
                if (q != r && data_lfd[q] >= 0) {
                    ::close(data_lfd[q]);
                }
            }
            ::_exit(child_main(spec, r, job, data_lfd[r], endpoints));
        }
        std::vector<std::string> argv_s = spec.exec_argv;
        argv_s.emplace_back("--net-rank");
        argv_s.push_back(std::to_string(r));
        std::vector<char*> argv;
        argv.reserve(argv_s.size() + 1);
        for (std::string& a : argv_s) {
            argv.push_back(a.data());
        }
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127); // exec failed
    }
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        if (data_lfd[r] >= 0) {
            ::close(data_lfd[r]);
        }
    }

    JobResult res;
    res.total_slots = job.plan.total_slots;
    res.block_elems = job.plan.block_elems;
    res.memory.assign(static_cast<std::size_t>(res.total_slots) *
                          res.block_elems,
                      0.0);
    res.have.assign(static_cast<std::size_t>(res.total_slots), 0);
    res.ranks.resize(spec.procs);
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        res.ranks[r].rank = r;
    }

    // Admit every rank: HELLO identifies it and cross-checks the plan.
    std::vector<int> ctl(spec.procs, -1);
    bool protocol_ok = true;
    std::vector<std::uint8_t> frame;
    for (std::uint32_t i = 0; i < spec.procs && protocol_ok; ++i) {
        const int fd = accept_peer(control_lfd, 30'000);
        if (fd < 0) {
            append_error(res.error, "control accept timeout");
            protocol_ok = false;
            break;
        }
        set_recv_timeout(fd, 30'000);
        HelloMsg hello;
        if (read_frame(fd, frame) != IoStatus::ok ||
            !decode_hello(frame, hello) || hello.rank >= spec.procs ||
            ctl[hello.rank] >= 0) {
            ::close(fd);
            append_error(res.error, "bad control HELLO");
            protocol_ok = false;
            break;
        }
        if (hello.plan_fp != job.fp) {
            ::close(fd);
            append_error(res.error,
                         "plan fingerprint mismatch at rank " +
                             std::to_string(hello.rank));
            protocol_ok = false;
            break;
        }
        ctl[hello.rank] = fd;
    }

    // GO — every mesh is up, so play() starts race-free everywhere.
    if (protocol_ok) {
        encode_bare(frame, MsgType::go);
        for (std::uint32_t r = 0; r < spec.procs && protocol_ok; ++r) {
            if (write_frame(ctl[r], frame) != IoStatus::ok) {
                append_error(res.error, "GO lost to rank " +
                                            std::to_string(r));
                protocol_ok = false;
            }
        }
    }

    // Collect REPORT + DUMPs + FIN per rank.
    if (protocol_ok) {
        for (std::uint32_t r = 0; r < spec.procs; ++r) {
            set_recv_timeout(ctl[r], 120'000);
            bool fin = false;
            while (!fin) {
                if (read_frame(ctl[r], frame) != IoStatus::ok) {
                    append_error(res.error, "control stream lost to rank " +
                                                std::to_string(r));
                    protocol_ok = false;
                    break;
                }
                const std::optional<MsgType> type = frame_type(frame);
                if (type == MsgType::fin) {
                    fin = true;
                } else if (type == MsgType::report) {
                    ReportMsg msg;
                    if (decode_report(frame, msg) && msg.rank == r) {
                        res.ranks[r].play = msg.play;
                        res.ranks[r].wire = msg.wire;
                        res.ranks[r].fault = msg.fault;
                        res.ranks[r].reported = true;
                    }
                } else if (type == MsgType::metrics) {
                    obs::RegistrySnapshot snap;
                    if (decode_metrics(frame, snap)) {
                        res.ranks[r].metrics = std::move(snap);
                    }
                } else if (type == MsgType::dump) {
                    DumpView dump;
                    if (decode_dump(frame, dump) &&
                        dump.slot < res.total_slots &&
                        dump.payload.size() ==
                            res.block_elems * sizeof(double)) {
                        ByteReader rd(dump.payload);
                        rd.blocks(res.memory.data() +
                                      static_cast<std::size_t>(dump.slot) *
                                          res.block_elems,
                                  res.block_elems);
                        res.have[static_cast<std::size_t>(dump.slot)] = 1;
                    }
                }
            }
        }
    }

    // BYE releases every rank's io thread (all FINs are in: nobody still
    // needs a peer's retransmits).
    encode_bare(frame, MsgType::bye);
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        if (ctl[r] >= 0) {
            (void)write_frame(ctl[r], frame);
        }
    }
    if (!protocol_ok) {
        // A wedged child cannot be drained politely.
        for (const pid_t pid : pids) {
            if (pid > 0) {
                (void)::kill(pid, SIGKILL);
            }
        }
    }
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        int status = 0;
        if (pids[r] > 0 && ::waitpid(pids[r], &status, 0) == pids[r]) {
            res.ranks[r].exit_code =
                WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        }
        if (ctl[r] >= 0) {
            ::close(ctl[r]);
        }
    }
    ::close(control_lfd);

    // Socket-file cleanup (best effort).
    ::unlink(control_ep.path.c_str());
    if (spec.transport == ft::TransportClass::uds) {
        for (std::uint32_t r = 0; r < spec.procs; ++r) {
            ::unlink(endpoints[r].path.c_str());
        }
    }
    if (own_dir) {
        ::rmdir(spec.dir.c_str());
    }

    // Verdict.
    res.ok = protocol_ok;
    double max_seconds = 0;
    for (std::uint32_t r = 0; r < spec.procs; ++r) {
        const RankReport& rr = res.ranks[r];
        if (rr.exit_code != 0) {
            append_error(res.error, "rank " + std::to_string(r) +
                                        " exited " +
                                        std::to_string(rr.exit_code));
            res.ok = false;
        }
        if (!rr.reported) {
            append_error(res.error,
                         "rank " + std::to_string(r) + " never reported");
            res.ok = false;
            continue;
        }
        if (!rr.play.clean() || rr.fault.faulted()) {
            append_error(res.error,
                         "rank " + std::to_string(r) + " faulted: " +
                             ft::to_string(rr.fault.cls));
            res.ok = false;
        }
        if (rr.wire.link_failures != 0) {
            append_error(res.error, "rank " + std::to_string(r) +
                                        " lost a link");
            res.ok = false;
        }
        max_seconds = std::max(max_seconds, rr.play.seconds);
        res.wire += rr.wire;
        res.metrics.merge(rr.metrics);
    }
    res.seconds = max_seconds;
    for (std::uint64_t s = 0; s < res.total_slots; ++s) {
        if (res.have[static_cast<std::size_t>(s)] == 0) {
            append_error(res.error, "slot " + std::to_string(s) +
                                        " never collected");
            res.ok = false;
            break;
        }
    }
    return res;
}

} // namespace hcube::net
