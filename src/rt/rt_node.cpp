// rt_node: one live protocol process over UDP.
//
// Runs a single node of the live runtime (rt/node.h) — typically
// launched n times (once per id) against a shared --base-port, or
// indirectly through rt_cluster. Prints the node's result JSON to
// stdout (or --out FILE) when done. Exit status: 0 node ran and, for
// kset, decided; 1 run failed (socket, no decision); 2 usage error.
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>

#include "fault/fault_spec.h"
#include "rt/node.h"

namespace {

using saf::rt::NodeConfig;
using saf::rt::NodeResult;

void print_usage(std::ostream& os) {
  os << "usage: rt_node --id I [--n N] [--t T] [--k K]\n"
        "               [--protocol kset|wheels] [--x X] [--y Y]\n"
        "               [--base-port P] [--proposal V] [--seed S]\n"
        "               [--run-for-ms MS] [--linger-ms MS] [--rounds R]\n"
        "               [--hb-period MS] [--hb-timeout MS]\n"
        "               [--trace FILE] [--out FILE] [--metrics FILE]\n"
        "               [--wal FILE] [--faults SPEC] [--fault-seed S]\n"
        "               [--help]\n"
        "\n"
        "--wal FILE enables crash recovery (kset only): the node appends\n"
        "write-ahead records there and, restarted after a kill,\n"
        "bumps its incarnation, restores decided rounds and rejoins via\n"
        "catch-up. --faults installs a fault::LinkFaultModel profile on\n"
        "the live UDP link.\n";
}

int usage(const std::string& err = "") {
  if (!err.empty()) std::cerr << "rt_node: " << err << "\n";
  print_usage(std::cerr);
  return 2;
}

template <typename Int>
bool parse_int(const char* flag, const char* v, long long lo, Int* out) {
  errno = 0;
  char* end = nullptr;
  const long long raw = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || raw < lo) {
    std::cerr << "rt_node: " << flag << " expects an integer >= " << lo
              << "\n";
    return false;
  }
  *out = static_cast<Int>(raw);
  return true;
}

bool parse_args(int argc, char** argv, NodeConfig* cfg, bool* have_id) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "rt_node: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--id") {
      if ((v = value("--id")) == nullptr ||
          !parse_int("--id", v, 0, &cfg->id)) {
        return false;
      }
      *have_id = true;
    } else if (arg == "--n") {
      if ((v = value("--n")) == nullptr || !parse_int("--n", v, 2, &cfg->n))
        return false;
    } else if (arg == "--t") {
      if ((v = value("--t")) == nullptr || !parse_int("--t", v, 1, &cfg->t))
        return false;
    } else if (arg == "--k") {
      if ((v = value("--k")) == nullptr || !parse_int("--k", v, 1, &cfg->k))
        return false;
    } else if (arg == "--protocol") {
      if ((v = value("--protocol")) == nullptr) return false;
      cfg->protocol = v;
    } else if (arg == "--x") {
      if ((v = value("--x")) == nullptr || !parse_int("--x", v, 1, &cfg->x))
        return false;
    } else if (arg == "--y") {
      if ((v = value("--y")) == nullptr || !parse_int("--y", v, 0, &cfg->y))
        return false;
    } else if (arg == "--base-port") {
      if ((v = value("--base-port")) == nullptr ||
          !parse_int("--base-port", v, 1024, &cfg->base_port)) {
        return false;
      }
    } else if (arg == "--proposal") {
      if ((v = value("--proposal")) == nullptr ||
          !parse_int("--proposal", v, std::numeric_limits<long long>::min(),
                     &cfg->proposal)) {
        return false;
      }
    } else if (arg == "--seed") {
      if ((v = value("--seed")) == nullptr ||
          !parse_int("--seed", v, 0, &cfg->seed)) {
        return false;
      }
    } else if (arg == "--run-for-ms") {
      if ((v = value("--run-for-ms")) == nullptr ||
          !parse_int("--run-for-ms", v, 1, &cfg->run_for_ms)) {
        return false;
      }
    } else if (arg == "--linger-ms") {
      if ((v = value("--linger-ms")) == nullptr ||
          !parse_int("--linger-ms", v, 0, &cfg->linger_ms)) {
        return false;
      }
    } else if (arg == "--hb-period") {
      if ((v = value("--hb-period")) == nullptr ||
          !parse_int("--hb-period", v, 1, &cfg->hb.hb_period)) {
        return false;
      }
    } else if (arg == "--hb-timeout") {
      if ((v = value("--hb-timeout")) == nullptr ||
          !parse_int("--hb-timeout", v, 1, &cfg->hb.timeout_initial)) {
        return false;
      }
    } else if (arg == "--rounds") {
      if ((v = value("--rounds")) == nullptr ||
          !parse_int("--rounds", v, 1, &cfg->rounds)) {
        return false;
      }
    } else if (arg == "--trace") {
      if ((v = value("--trace")) == nullptr) return false;
      cfg->trace_path = v;
    } else if (arg == "--out") {
      if ((v = value("--out")) == nullptr) return false;
      cfg->result_path = v;
    } else if (arg == "--metrics") {
      if ((v = value("--metrics")) == nullptr) return false;
      cfg->metrics_path = v;
    } else if (arg == "--wal") {
      if ((v = value("--wal")) == nullptr) return false;
      cfg->wal_path = v;
    } else if (arg == "--faults") {
      if ((v = value("--faults")) == nullptr) return false;
      cfg->faults = v;
    } else if (arg == "--fault-seed") {
      if ((v = value("--fault-seed")) == nullptr ||
          !parse_int("--fault-seed", v, 0, &cfg->fault_seed)) {
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "rt_node: unknown flag " << arg << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  NodeConfig cfg;
  bool have_id = false;
  if (!parse_args(argc, argv, &cfg, &have_id)) return usage();
  if (!have_id) return usage("--id is required");
  if (cfg.id >= cfg.n) return usage("--id must be < --n");
  if (cfg.t >= cfg.n) return usage("--t must be < --n");
  if (cfg.protocol != "kset" && cfg.protocol != "wheels") {
    return usage("--protocol must be kset or wheels");
  }
  if (!cfg.wal_path.empty() && cfg.protocol != "kset") {
    return usage("--wal requires --protocol kset");
  }
  if (!cfg.faults.empty()) {
    try {
      (void)saf::fault::parse_fault_spec(cfg.faults);
    } catch (const std::exception& e) {
      return usage(std::string("--faults: ") + e.what());
    }
  }

  const NodeResult res = saf::rt::run_node(cfg);
  const std::string json = saf::rt::node_result_json(cfg, res);
  if (cfg.result_path.empty()) std::cout << json << "\n";
  if (!res.ok) {
    std::cerr << "rt_node: run failed (socket bind on port "
              << cfg.base_port + cfg.id << "?)\n";
    return 1;
  }
  if (cfg.protocol == "kset" && !res.decided) {
    std::cerr << "rt_node: no decision within " << cfg.run_for_ms << " ms\n";
    return 1;
  }
  return 0;
}
