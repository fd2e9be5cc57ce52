// One-stop reproduction scorecard: every paper number this repository
// regenerates, with its deviation, plus worst-case deviations per table.
// This is the machine-checkable backbone of EXPERIMENTS.md: the exit
// status is nonzero when a headline claim is missed.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "harness/experiments.hpp"

using namespace fpga_stencil;

namespace {

struct WorstCase {
  double dev = 0.0;
  std::string where;
  void update(double d, const std::string& w) {
    if (d > dev) {
      dev = d;
      where = w;
    }
  }
};

}  // namespace

int main(int argc, char**) {
  if (argc > 1) {
    std::cerr << "usage: experiments_summary\n";
    return 2;
  }
  bench::print_header("REPRODUCTION SCORECARD",
                      "Every regenerated value vs the paper, worst "
                      "deviations highlighted.");
  const DeviceSpec dev = arria10_gx1150();

  // ---- Table III ----
  WorstCase w3_meas, w3_fmax, w3_power;
  for (int dims : {2, 3}) {
    for (int rad = 1; rad <= 4; ++rad) {
      const FpgaResultRow r = fpga_result_row(dims, rad, dev);
      const paper::Table3Row& p = paper::table3_row(dims, rad);
      const std::string where =
          std::to_string(dims) + "D r" + std::to_string(rad);
      w3_meas.update(paper::deviation(r.perf.measured_gbps, p.measured_gbps),
                     where);
      w3_fmax.update(paper::deviation(r.fmax_mhz, p.fmax_mhz), where);
      w3_power.update(paper::deviation(r.power_watts, p.power_watts), where);
    }
  }
  std::cout << "\nTable III (8 rows):\n"
            << "  measured GB/s   worst dev "
            << format_percent(w3_meas.dev) << " (" << w3_meas.where << ")\n"
            << "  fmax            worst dev "
            << format_percent(w3_fmax.dev) << " (" << w3_fmax.where << ")\n"
            << "  power           worst dev "
            << format_percent(w3_power.dev) << " (" << w3_power.where
            << ")\n";

  // ---- Tables IV & V ----
  for (int dims : {2, 3}) {
    const auto ours = comparison_table(dims);
    const auto& ref = dims == 2 ? paper::table4() : paper::table5();
    WorstCase wg, wc, we;
    for (const paper::ComparisonRefRow& p : ref) {
      const auto it = std::find_if(
          ours.begin(), ours.end(), [&](const ComparisonRow& r) {
            return r.radius == p.radius && r.device == p.device;
          });
      if (it == ours.end()) {
        std::cout << "MISSING ROW: " << p.device << "\n";
        return 1;
      }
      const std::string where =
          std::string(p.device) + " r" + std::to_string(p.radius);
      wg.update(paper::deviation(it->gflops, p.gflops), where);
      wc.update(paper::deviation(it->gcells, p.gcells), where);
      we.update(paper::deviation(it->power_efficiency, p.power_efficiency),
                where);
    }
    std::cout << "\nTable " << (dims == 2 ? "IV" : "V") << " ("
              << ref.size() << " rows):\n"
              << "  GFLOP/s    worst dev " << format_percent(wg.dev) << " ("
              << wg.where << ")\n"
              << "  GCell/s    worst dev " << format_percent(wc.dev) << " ("
              << wc.where << ")\n"
              << "  GFLOP/s/W  worst dev " << format_percent(we.dev) << " ("
              << we.where << ")\n";
  }

  // ---- headline claims ----
  std::cout << "\nHeadline claims:\n";
  const bool h2d = [&] {
    for (int rad = 1; rad <= 4; ++rad) {
      if (fpga_result_row(2, rad, dev).perf.measured_gflops < 650) {
        return false;
      }
    }
    return true;
  }();
  const bool h3d = [&] {
    for (int rad = 1; rad <= 4; ++rad) {
      if (fpga_result_row(3, rad, dev).perf.measured_gflops < 270) {
        return false;
      }
    }
    return true;
  }();
  std::cout << "  2D > ~700 GFLOP/s through radius 4: "
            << (h2d ? "reproduced" : "MISSED") << "\n"
            << "  3D > 270 GFLOP/s through radius 4: "
            << (h3d ? "reproduced" : "MISSED") << "\n";
  const double ratio_r1 =
      fpga_result_row(2, 1, dev).perf.roofline_ratio;
  std::cout << "  temporal blocking beats memory bandwidth: roofline ratio "
            << format_fixed(ratio_r1, 1) << "x at 2D r1 (paper 19.8x)\n";

  return h2d && h3d ? 0 : 1;
}
