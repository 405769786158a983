// Streaming aggregation plane throughput: how fast the plane stages and
// drains events, mirrored into results/BENCH_stream.json as stream_ingest.
//
// A synthetic producer loop advances per-rank counters and crosses every
// rank over an epoch, so each iteration stages metric deltas into the SPSC
// rings and drains them into the bounded store. events_per_sec is the
// end-to-end staging+drain throughput, the mean of 10 runs in separate
// processes with its 95% interval (an absolute rate scripts/bench_trend.py
// gates against a same-host baseline). What the plane adds to the per-packet hook is
// bench_layers' plane row; virtual clocks are identical in every
// configuration (ObsplanePlane.ClocksBitIdenticalWithAndWithoutPlane).
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obsplane/plane.h"

namespace {

using namespace mpim;

mpi::EngineConfig stream_config(int nranks) {
  // Contention model off: this bench isolates host-side software cost.
  auto cost = net::CostModel::plafrim_like(bench::nodes_for_ranks(nranks));
  auto placement = topo::round_robin_placement(nranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  return cfg;
}

double ingest_once(int nranks, int epochs, std::uint64_t* events_out) {
  mpi::Engine engine(stream_config(nranks));
  obsplane::PlaneConfig pcfg;
  pcfg.epoch_s = 1.0e-3;
  auto plane = obsplane::Plane::attach(engine, pcfg);
  auto& hub = engine.telemetry();
  const auto& ids = hub.ids();

  const auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    const double now_s = (e + 1) * pcfg.epoch_s;
    for (int r = 0; r < nranks; ++r) {
      hub.add(ids.engine_messages, r);
      hub.add(ids.engine_bytes, r, 64);
      plane->on_epoch(r, now_s, false);
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  *events_out = plane->events_ingested();
  return wall;
}

void ingest_sweep(const bench::Options& opt) {
  const int epochs = opt.quick ? 100000 : 400000;
  const int ranks[] = {2, 8};
  // Ten samples, each from its own process running both rank counts, so
  // that a process (or a few seconds of host) that runs slow slows both
  // rows and widens their intervals instead of shifting one row's mean.
  const auto samples = bench::process_samples(10, [&] {
    std::vector<double> v;  // events, events/s per rank count
    for (int nranks : ranks) {
      std::uint64_t events = 0;
      const double wall = ingest_once(nranks, epochs, &events);
      v.push_back(static_cast<double>(events));
      v.push_back(static_cast<double>(events) / wall);
    }
    return v;
  });
  std::vector<double> rates[2];
  for (const auto& v : samples)
    for (int i = 0; i < 2; ++i) rates[i].push_back(v[2 * i + 1]);
  Table t({"config", "ranks", "epochs", "events", "events_per_sec",
           "events_per_sec_ci95"});
  for (int i = 0; i < 2; ++i) {
    const bench::Estimate e = bench::estimate(rates[i]);
    t.add("ingest/r" + std::to_string(ranks[i]), ranks[i], epochs,
          static_cast<unsigned long>(samples[0][2 * i]), format_sig(e.mean, 4),
          format_sig(e.ci95, 3));
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, "stream_ingest");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  bench::banner("plane ingest throughput (stage + drain)");
  ingest_sweep(opt);
  return 0;
}
