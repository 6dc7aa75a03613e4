# Runs greencap with malformed --config, --platform, --scheduler and
# --faults values and requires the usage-error contract for each: exit
# status 2 and a message on stderr that names the flag and the value.
#
#   cmake -DGREENCAP=<path to greencap> -P cli_bad_config.cmake
function(expect_usage_error pattern)
  execute_process(
    COMMAND ${GREENCAP} ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: expected exit status 2, got '${status}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${ARGN}: stderr does not match '${pattern}':\n${err}")
  endif()
endfunction()

expect_usage_error("flag '--config' expects H/B/L letters, one per GPU, got 'HHXZ'"
                   --config HHXZ)
expect_usage_error("flag '--platform' expects .*, got 'NOPE'"
                   --platform NOPE --n 100 --nb 10)
expect_usage_error("flag '--scheduler' expects eager\\|prio\\|random\\|ws\\|lws\\|dm\\|dmda\\|dmdas\\|dmdae, got 'nope'"
                   --scheduler nope)
expect_usage_error("flag '--faults' expects a fault plan .*'garbage'"
                   --faults garbage)
expect_usage_error("flag '--config' expects 4 letters for 32-AMD-4-A100, got 'HHB'"
                   --platform 32-AMD-4-A100 --config HHB)
