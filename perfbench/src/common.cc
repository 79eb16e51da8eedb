#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(v.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0;
  std::vector<double> rx = Ranks(x);
  std::vector<double> ry = Ranks(y);
  double n = static_cast<double>(x.size());
  double mx = 0, my = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    mx += rx[i];
    my += ry[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx == 0 || syy == 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

// ------------------------------------------------------------------ Report.

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::Setting(const std::string& name, const std::string& value) {
  settings_.emplace_back(name, value);
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

bool Report::correct() const {
  if (attempted_ == 0 || failed_ > 0) return false;
  for (const CheckResult& c : checks_) {
    if (!c.ok) return false;
  }
  return true;
}

void Report::Finish(const Args& args) {
  std::ostringstream human;
  human << "perfbench " << args.workload << " seed=" << args.seed
        << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
        << "\n";
  for (const auto& [name, value] : settings_) {
    human << "  setting " << name << ": " << value << "\n";
  }
  for (const std::string& note : notes_) human << "  note: " << note << "\n";
  for (const CheckResult& c : checks_) {
    human << "  check " << c.name << ": " << (c.ok ? "pass" : "FAIL")
          << (c.detail.empty() ? "" : " (" + c.detail + ")") << "\n";
  }
  auto print = [&](const Figure& f, const char* tag) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", f.value);
    human << "  " << tag << " " << f.name << " = " << buf << " " << f.unit
          << "\n";
  };
  for (const Figure& f : metrics_) print(f, "metric");
  for (const Figure& f : info_) print(f, "info  ");
  human << "  attempted " << attempted_ << ", failed " << failed_
        << ", correct " << (correct() ? "true" : "false") << "\n";
  std::cout << human.str();

  auto figures_json = [](const std::vector<Figure>& figures) {
    std::string out = "{";
    for (size_t i = 0; i < figures.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + JsonEscape(figures[i].name) +
             "\": {\"value\": " + JsonNumber(figures[i].value) +
             ", \"unit\": \"" + JsonEscape(figures[i].unit) + "\"}";
    }
    return out + "}";
  };
  std::string line = "{\"correct\": " +
                     std::string(correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": " + figures_json(metrics_) + "}";

  // The result file: the JSON line's content plus host and settings.
  std::string file = "{\n  \"host\": " + HostFingerprintJson() +
                     ",\n  \"run\": {\"workload\": \"" +
                     JsonEscape(args.workload) +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + JsonNumber(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [name, value] : settings_) {
    file += ", \"" + JsonEscape(name) + "\": \"" + JsonEscape(value) + "\"";
  }
  file += "},\n  \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    file += std::string(i > 0 ? ", " : "") + "{\"name\": \"" +
            JsonEscape(checks_[i].name) +
            "\", \"ok\": " + (checks_[i].ok ? "true" : "false") +
            ", \"detail\": \"" + JsonEscape(checks_[i].detail) + "\"}";
  }
  file += "],\n  \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    file += std::string(i > 0 ? ", " : "") + "\"" + JsonEscape(notes_[i]) +
            "\"";
  }
  file += "],\n  \"info\": " + figures_json(info_) +
          ",\n  \"result\": " + line + "\n}\n";
  std::error_code ec;
  std::filesystem::create_directories(args.results, ec);
  std::string path = args.results + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << file;
  std::cout << "  result file: " << path << "\n";
  std::cout << line << std::endl;
}

// ----------------------------------------------------------- Reply parsing.

bool ReplyOk(const std::string& reply) {
  return reply == "OK" || reply.rfind("OK\n", 0) == 0;
}

RunReply ParseRunReply(const std::string& reply) {
  RunReply out;
  if (!ReplyOk(reply)) return out;
  size_t access = reply.find("\n  Access: ");
  size_t arrow = reply.find("\n-> ");
  if (access == std::string::npos || arrow == std::string::npos) return out;
  out.index_plan = reply.compare(access + 11, 15, "COLLECTION SCAN") != 0;
  long long results = -1;
  long long docs = -1;
  if (std::sscanf(reply.c_str() + arrow + 4,
                  "%lld result nodes from %lld docs", &results,
                  &docs) != 2) {
    return out;
  }
  out.results = results;
  out.docs = docs;
  out.ok = true;
  return out;
}

AdviseReply ParseAdviseReply(const std::string& reply) {
  AdviseReply out;
  if (!ReplyOk(reply)) return out;
  size_t header = reply.find("\nRecommended configuration (");
  if (header == std::string::npos) return out;
  std::istringstream lines(reply.substr(header + 1));
  std::string line;
  std::getline(lines, line);  // The header itself.
  while (std::getline(lines, line) && line.rfind("  CREATE INDEX ", 0) == 0) {
    out.ddl.push_back(line.substr(2));
  }
  out.ok = reply.find("\nWorkload cost: ") != std::string::npos;
  return out;
}

int64_t ParseDmlReply(const std::string& reply, const std::string& what) {
  if (!ReplyOk(reply)) return -1;
  std::string prefix = "OK\n" + what + " doc ";
  if (reply.rfind(prefix, 0) != 0) return -1;
  long long doc = -1;
  if (std::sscanf(reply.c_str() + prefix.size(), "%lld", &doc) != 1) {
    return -1;
  }
  return doc;
}

std::map<std::string, double> ParseStats(const std::string& reply) {
  std::map<std::string, double> out;
  std::istringstream lines(reply);
  std::string line;
  while (std::getline(lines, line)) {
    size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    std::string name = line.substr(0, eq);
    name.erase(0, name.find_first_not_of(' '));
    char* end = nullptr;
    double value = std::strtod(line.c_str() + eq + 3, &end);
    if (end == line.c_str() + eq + 3) continue;
    out[name] = value;
  }
  return out;
}

// -------------------------------------------------------- Server processes.

pid_t SpawnProcess(const std::string& server,
                   const std::vector<std::string>& argv,
                   const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  std::vector<std::string> all;
  all.push_back(server);
  all.insert(all.end(), argv.begin(), argv.end());
  std::vector<char*> raw;
  for (std::string& a : all) raw.push_back(a.data());
  raw.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, server.c_str(), &actions, nullptr, raw.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

void StopProcess(pid_t pid, int sig) {
  if (pid <= 0) return;
  kill(pid, sig);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string HostFingerprintJson() {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        size_t colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  utsname uts{};
  std::string kernel = uname(&uts) == 0 ? uts.release : "unknown";
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + JsonEscape(cpu) + "\", \"kernel\": \"" +
         JsonEscape(kernel) + "\", \"compiler\": \"" +
         JsonEscape(PERFBENCH_COMPILER) + "\", \"build_type\": \"" +
         JsonEscape(PERFBENCH_BUILD_TYPE) + "\"}";
}

}  // namespace perfbench
