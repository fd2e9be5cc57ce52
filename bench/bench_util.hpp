// Shared helpers for the table-regeneration benches: paper-vs-ours
// annotation and common formatting.
#pragma once

#include <iostream>
#include <string>

#include "common/format.hpp"
#include "common/table.hpp"
#include "harness/paper_reference.hpp"

namespace fpga_stencil::bench {

/// "ours (paper: ref, dev +x%)" cell content.
inline std::string vs_paper(double ours, double paper_value, int prec = 3) {
  const double dev = (ours - paper_value) / paper_value;
  std::string sign = dev >= 0 ? "+" : "-";
  return format_fixed(ours, prec) + " (paper " +
         format_fixed(paper_value, prec) + ", " + sign +
         format_fixed(std::abs(dev) * 100.0, 1) + "%)";
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n================================================================\n"
            << title << "\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "================================================================\n";
}

}  // namespace fpga_stencil::bench
