# Asserts the CLI flag contract for a tool passed as -DTOOL=<path>:
#   * an unknown flag exits 2 and prints a usage line on stderr;
#   * --help exits 0 and prints the usage on stdout;
#   * with -DRANGE_CHECKS=1, an out-of-range --base-port exits 2 with
#     usage (before --help is reached) instead of wrapping;
#   * with -DCONTEXT_CHECKS=1 (trace_tool), a malformed or negative
#     `diff --context` exits 2 with usage.
if(NOT DEFINED TOOL)
  message(FATAL_ERROR "cli_usage_check.cmake requires -DTOOL=<path>")
endif()

# Runs TOOL with the list `args` and requires exit 2 with usage on stderr.
function(expect_usage_error args)
  execute_process(
    COMMAND ${TOOL} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REPLACE ";" " " shown "${args}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${TOOL} ${shown}: expected exit 2, got ${rc}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${TOOL} ${shown}: no usage on stderr; got: ${err}")
  endif()
endfunction()

execute_process(
  COMMAND ${TOOL} --definitely-not-a-flag
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "${TOOL} --definitely-not-a-flag: expected exit 2, got ${rc}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR
    "${TOOL} --definitely-not-a-flag: no usage on stderr; got: ${err}")
endif()
if(NOT err MATCHES "unknown")
  message(FATAL_ERROR
    "${TOOL} --definitely-not-a-flag: unknown-flag message missing; got: ${err}")
endif()

execute_process(
  COMMAND ${TOOL} --help
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} --help: expected exit 0, got ${rc}")
endif()
if(NOT out MATCHES "usage:")
  message(FATAL_ERROR "${TOOL} --help: no usage on stdout; got: ${out}")
endif()

# check_runner only: malformed --dfs-* values must exit 2 with usage,
# not be silently clamped (a truncated depth would quietly weaken an
# exhaustiveness claim).
if(DFS_CHECKS)
  foreach(bad_args
      "--dfs;--dfs-depth;-3"
      "--dfs;--dfs-depth;99999999999999999999"
      "--dfs;--dfs-mode;banana")
    execute_process(
      COMMAND ${TOOL} --protocol kset-small ${bad_args}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR
        "${TOOL} ${bad_args}: expected exit 2, got ${rc}")
    endif()
    if(NOT err MATCHES "usage:")
      message(FATAL_ERROR
        "${TOOL} ${bad_args}: no usage on stderr; got: ${err}")
    endif()
  endforeach()
endif()

# A port above 65535 must be refused, not wrapped into the uint16_t
# field; the error comes before --help, so no process or socket starts.
if(RANGE_CHECKS)
  expect_usage_error("--base-port;70000;--help")
endif()

# trace_tool only: --context must be a whole decimal >= 0 ("3x" is not
# 3, and -1 must not become a huge context that prints the whole prefix).
if(CONTEXT_CHECKS)
  set(trace "${CMAKE_CURRENT_BINARY_DIR}/cli_usage_empty.trace.jsonl")
  file(WRITE "${trace}" "# empty trace\n")
  foreach(bad_context 3x -1 abc)
    expect_usage_error("diff;${trace};${trace};--context;${bad_context}")
  endforeach()
endif()
