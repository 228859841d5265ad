#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "ipc/transport.hpp"
#include "rt/client.hpp"
#include "rt/registry.hpp"
#include "rt/server.hpp"
#include "workloads/trace/replay.hpp"

namespace vgpu::workloads::trace {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-client shm segments left behind under `prefix` (the leak gate);
/// the server-owned _door/_arena names live until server destruction and
/// do not count.
long leaked_segments(const std::string& prefix) {
  namespace fs = std::filesystem;
  const std::string stem = prefix.substr(1);  // shm names drop the '/'
  long leaked = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/dev/shm", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem, 0) != 0) continue;
    if (name == stem + "_door" || name == stem + "_arena") continue;
    ++leaked;
  }
  return leaked;
}

struct WorkerPlan {
  const TenantSpec* tenant = nullptr;
  JobShape shape;
  int kernel_id = -1;
  int worker = 0;        // index within the tenant
  int global_id = 0;     // RtClient id
  std::vector<std::int64_t> due_us;  // open-loop schedule (trace time)
  int closed_rounds = 0;             // closed-loop job count
};

}  // namespace

StatusOr<ReplayResult> replay_live(const Trace& trace,
                                   const LiveReplayOptions& options) {
  ipc::TransportKind transport = ipc::TransportKind::kShmRing;
  if (!ipc::parse_transport(options.transport, &transport)) {
    return InvalidArgument("unknown transport '" + options.transport + "'");
  }
  rt::DataPlane data_plane = rt::DataPlane::kZeroCopy;
  if (!rt::parse_data_plane(options.data_plane, &data_plane)) {
    return InvalidArgument("unknown data plane '" + options.data_plane +
                           "'");
  }
  rt::ExecMode exec = rt::ExecMode::kSerial;
  if (!rt::parse_exec_mode(options.exec, &exec)) {
    return InvalidArgument("unknown exec mode '" + options.exec + "'");
  }
  if (options.time_scale <= 0.0) {
    return InvalidArgument("time_scale must be positive");
  }
  const bool ring = transport == ipc::TransportKind::kShmRing;

  // One worker plan per (tenant, worker): ops partitioned by seq % W —
  // the same mapping replay_des uses.
  std::vector<WorkerPlan> workers;
  Bytes arena_need = 0;
  int next_id = 0;
  for (const TenantSpec& t : trace.tenants) {
    auto shape = job_shape(t.kernel, t.scale);
    VGPU_RETURN_IF_ERROR(shape.status());
    const auto kid = rt::builtin_registry().id_of(shape->kernel);
    VGPU_RETURN_IF_ERROR(kid.status());
    const Bytes slice = rt::vsm_region_size(
        ipc::kTransportCapMqueue | ipc::kTransportCapShmRing,
        shape->bytes_in, shape->bytes_out);
    for (int w = 0; w < t.workers; ++w) {
      WorkerPlan plan;
      plan.tenant = &t;
      plan.shape = *shape;
      plan.kernel_id = *kid;
      plan.worker = w;
      plan.global_id = next_id++;
      if (t.arrival == ArrivalKind::kClosedLoop) {
        plan.closed_rounds =
            t.jobs / t.workers + (w < t.jobs % t.workers ? 1 : 0);
      } else {
        for (const TraceOp& op : trace.ops) {
          if (op.tenant == t.id && op.seq % t.workers == w) {
            plan.due_us.push_back(op.t_us);
          }
        }
      }
      arena_need += (slice + 128) * 2;
      workers.push_back(std::move(plan));
    }
  }
  if (workers.empty()) return InvalidArgument("trace has no tenants");

  rt::RtServerConfig config;
  config.prefix = options.prefix.empty()
                      ? "/vgpu_mix_" + std::to_string(::getpid())
                      : options.prefix;
  config.expected_clients = 1;  // open loop: no SPMD wave
  config.workers = options.workers;
  config.sched = options.sched;
  config.transport = transport;
  config.data_plane = data_plane;
  config.exec = exec;
  config.max_sessions = static_cast<int>(workers.size()) + 16;
  if (ring) config.arena_size = arena_need + 64 * 1024;
  if (options.vmem) {
    config.vmem.enabled = true;
    config.vmem.page_size = 64 * 1024;
    config.vmem.device_capacity = options.vmem_device_mb * kMiB;
    config.vmem.host_ledger = 256 * kMiB;
  }
  // Slow replay threads on an oversubscribed box must not be declared
  // dead mid-run; lingering released sessions should GC quickly so the
  // leak gate can sample a quiesced server.
  config.lease_timeout = std::chrono::milliseconds(30000);
  config.lease_check_interval = std::chrono::milliseconds(20);
  config.release_linger = std::chrono::milliseconds(20);

  rt::RtServer server(config, rt::builtin_registry());
  VGPU_RETURN_IF_ERROR(server.start());
  auto ctx = rt::RtClientContext::open(config.prefix);
  if (!ctx.ok()) {
    server.stop();
    return ctx.status();
  }

  ReplayResult result;
  obs::SloAggregator agg;
  std::mutex result_mu;  // guards completed/outputs from worker threads
  for (const TenantSpec& t : trace.tenants) {
    agg.declare(t.id, t.name, t.weight,
                obs::SloTarget{t.slo_p50_ms, t.slo_p99_ms});
    result.completed[t.id] = 0;
  }
  std::atomic<long> errors{0};

  const auto start = Clock::now() + std::chrono::milliseconds(200);
  const auto wall_due = [&](std::int64_t t_us) {
    return start + std::chrono::microseconds(static_cast<std::int64_t>(
                       static_cast<double>(t_us) * options.time_scale));
  };

  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (const WorkerPlan& plan : workers) {
    threads.emplace_back([&, &plan = plan] {
      const TenantSpec& t = *plan.tenant;
      rt::RtClientOptions copts;
      copts.transport = transport;
      copts.arena = ring;
      copts.priority = t.priority;
      copts.op_timeout = std::chrono::milliseconds(10000);
      copts.max_retries = 8;
      auto client = rt::RtClient::connect(*ctx, plan.global_id,
                                          plan.shape.bytes_in,
                                          plan.shape.bytes_out, copts);
      if (!client.ok() ||
          !client->req(plan.kernel_id, plan.shape.params).ok()) {
        errors.fetch_add(1);
        agg.record_error(t.id);
        return;
      }
      const auto fill_input = [&] {
        if (plan.shape.bytes_in > 0 && plan.shape.fill) {
          plan.shape.fill(client->input());
        }
      };
      fill_input();

      // Graph-capture tenants record the round loop once and fire each
      // job as a single kLaunchGraph verb; any capture failure falls
      // back to the plain verb loop (the job stream must go on).
      bool use_graph = false;
      if (t.graph) {
        use_graph = client->begin_capture().ok() && client->snd().ok() &&
                    client->str().ok() && client->wait_done().ok() &&
                    client->rcv().ok() && client->end_capture().ok() &&
                    client->upload_graph(/*graph_id=*/1).ok();
        // Upload travels through the input area; restore the payload.
        fill_input();
      }
      const auto run_job = [&]() -> bool {
        if (use_graph) return client->launch_graph(1).ok();
        return client->snd().ok() && client->str().ok() &&
               client->wait_done().ok() && client->rcv().ok();
      };

      long done = 0;
      if (t.arrival == ArrivalKind::kClosedLoop) {
        const auto think = std::chrono::microseconds(
            static_cast<std::int64_t>(t.think_ms * 1000.0 *
                                      options.time_scale));
        for (int r = 0; r < plan.closed_rounds; ++r) {
          const auto released = Clock::now();
          if (run_job()) {
            agg.record(t.id, std::chrono::duration<double, std::milli>(
                                 Clock::now() - released)
                                 .count());
            ++done;
          } else {
            errors.fetch_add(1);
            agg.record_error(t.id);
          }
          if (think.count() > 0 && r + 1 < plan.closed_rounds) {
            std::this_thread::sleep_for(think);
          }
        }
      } else {
        for (const std::int64_t t_us : plan.due_us) {
          const auto due = wall_due(t_us);
          std::this_thread::sleep_until(due);
          if (run_job()) {
            // Latency from the *scheduled* release: queueing delay from
            // a backed-up previous job stays charged to the tenant.
            agg.record(t.id, std::chrono::duration<double, std::milli>(
                                 Clock::now() - due)
                                 .count());
            ++done;
          } else {
            errors.fetch_add(1);
            agg.record_error(t.id);
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(result_mu);
        result.completed[t.id] += done;
        if (options.capture_outputs && plan.worker == 0 &&
            plan.shape.functional) {
          result.outputs[t.id].assign(client->output().begin(),
                                      client->output().end());
        }
      }
      if (!client->rls().ok()) {
        errors.fetch_add(1);
        agg.record_error(t.id);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double makespan_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();

  // Let the serve loop GC the lingering released sessions, then sample
  // the slot ledger while the server is still the slots' owner. Poll
  // instead of sleeping a fixed time: a serve loop slowed by host load
  // recycles late, not never, so only sessions still attached at the
  // deadline count as leaked.
  const rt::RtServerStats& stats = server.stats();
  const auto recycle_deadline = Clock::now() + config.release_linger +
                                4 * config.lease_check_interval +
                                std::chrono::seconds(3);
  while (stats.slots_recycled.load() < stats.sessions_attached.load() &&
         Clock::now() < recycle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  result.leaked_slots =
      stats.sessions_attached.load() - stats.slots_recycled.load();
  result.leaked_segments = leaked_segments(config.prefix);
  server.stop();

  result.errors = errors.load();
  result.makespan_ms = makespan_ms;
  result.report = agg.report(makespan_ms);
  return result;
}

}  // namespace vgpu::workloads::trace
