// trace_tool: inspect and compare structured run traces.
//
//   trace_tool diff A.jsonl B.jsonl [--context N]
//       Structural comparison. Exit 0 when identical, 1 with a report
//       naming the first divergent event otherwise.
//   trace_tool summary FILE.jsonl
//       Per-kind / per-process / per-tag tables and the time span.
//
// Exit codes: 0 ok / identical, 1 traces differ, 2 usage or I/O error.
#include <iostream>
#include <string>
#include <vector>

#include "trace/diff.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  int context = 3;
  std::vector<std::string> files;
  saf::util::Flags flags(
      "trace_tool",
      "       trace_tool summary <trace.jsonl>\n"
      "\n"
      "diff exits 0 when the traces are structurally identical, 1 with\n"
      "a report naming the first divergent event otherwise.\n"
      "Lines starting with '#' and blank lines are ignored.\n");
  flags.operands("diff <lhs.jsonl> <rhs.jsonl>", &files)
      .integer("--context", "N", &context, 0);
  if (argc < 2) return flags.fail("");
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    flags.print_usage(std::cout);
    return 0;
  }
  try {
    if (cmd == "diff") {
      if (const auto rc = flags.parse(argc - 1, argv + 1)) return *rc;
      if (files.size() != 2) {
        return flags.fail("diff needs two trace files");
      }
      const auto lhs = saf::trace::read_trace_file(files[0]);
      const auto rhs = saf::trace::read_trace_file(files[1]);
      const saf::trace::TraceDiff d =
          saf::trace::diff_traces(lhs, rhs, context);
      if (d.identical) {
        std::cout << d.reason << "\n";
        return 0;
      }
      std::cout << d.report;
      return 1;
    }
    if (cmd == "summary") {
      if (argc != 3 || (argv[2][0] == '-' && argv[2][1] != '\0')) {
        return flags.fail("summary needs exactly one trace file");
      }
      std::cout << saf::trace::summarize_trace(
          saf::trace::read_trace_file(argv[2]));
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_tool: " << e.what() << "\n";
    return 2;
  }
  return flags.fail("unknown command '" + cmd + "'");
}
