#include "core/host_profile.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/json.hpp"
#include "kernels/kernel_registry.hpp"

namespace fpga_stencil {
namespace {

/// "32K" / "512K" / "16384K" / "1M" -> bytes; 0 on anything else.
std::int64_t parse_size_string(const std::string& s) {
  if (s.empty()) return 0;
  std::int64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + (s[i] - '0');
    ++i;
  }
  if (i == 0) return 0;
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) v *= 1024;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) v *= 1024 * 1024;
  return v;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// Walks /sys/devices/system/cpu/cpu0/cache/index*/; fills whatever the
/// kernel exposes. Data/unified caches only (the probe pipeline streams
/// data; the instruction footprint is negligible).
void probe_sysfs_caches(HostProfile& p) {
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string type = read_line(base + "/type");
    if (type.empty()) break;  // no more cache levels
    if (type != "Data" && type != "Unified") continue;
    const int level = int(parse_size_string(read_line(base + "/level")));
    const std::int64_t size = parse_size_string(read_line(base + "/size"));
    if (size <= 0) continue;
    if (level == 1) p.l1_bytes = size;
    if (level == 2) p.l2_bytes = size;
    if (level >= 3) p.llc_bytes = size;
  }
}

HostProfile detect() {
  HostProfile p;
  const unsigned hc = std::thread::hardware_concurrency();
  p.cores = hc > 0 ? int(hc) : 1;

#if defined(_SC_LEVEL1_DCACHE_SIZE)
  if (const long v = ::sysconf(_SC_LEVEL1_DCACHE_SIZE); v > 0) {
    p.l1_bytes = v;
  }
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  if (const long v = ::sysconf(_SC_LEVEL2_CACHE_SIZE); v > 0) p.l2_bytes = v;
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
  if (const long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE); v > 0) p.llc_bytes = v;
#endif
  if (p.l1_bytes == 0 || p.l2_bytes == 0 || p.llc_bytes == 0) {
    probe_sysfs_caches(p);
  }
  // Conservative defaults where the kernel hides the topology (containers,
  // exotic arches): a small cache model only costs the tuner a few extra
  // probes, so err small.
  if (p.l1_bytes <= 0) p.l1_bytes = 32 * 1024;
  if (p.l2_bytes <= 0) p.l2_bytes = 512 * 1024;
  if (p.llc_bytes <= 0) p.llc_bytes = 8 * 1024 * 1024;
  if (p.llc_bytes < p.l2_bytes) p.llc_bytes = p.l2_bytes;

  p.kernel_isa = kernel_isa_name(KernelRegistry::instance().isa());

#if defined(__clang__)
  p.compiler = std::string("clang ") + std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__) + "." +
               std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__) + "." +
               std::to_string(__GNUC_PATCHLEVEL__);
#else
  p.compiler = "unknown";
#endif
  return p;
}

}  // namespace

std::string HostProfile::fingerprint() const {
  std::ostringstream os;
  os << "c" << cores << "-l1:" << l1_bytes / 1024 << "k-l2:" << l2_bytes / 1024
     << "k-llc:" << llc_bytes / 1024 << "k-"
     << kernel_isa << "-";
  for (const char c : compiler) os << (c == ' ' ? '_' : c);
  return os.str();
}

const HostProfile& host_profile() {
  static const HostProfile profile = detect();
  return profile;
}

void write_host_profile(JsonWriter& w) {
  const HostProfile& p = host_profile();
  w.key("host").begin_object();
  w.key("cores").value(p.cores);
  w.key("l1_kib").value(p.l1_bytes / 1024);
  w.key("l2_kib").value(p.l2_bytes / 1024);
  w.key("llc_kib").value(p.llc_bytes / 1024);
  w.key("kernel_isa").value(p.kernel_isa);
  w.key("compiler").value(p.compiler);
  w.key("fingerprint").value(p.fingerprint());
  w.end_object();
}

}  // namespace fpga_stencil
