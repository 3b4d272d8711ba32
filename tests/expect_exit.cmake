# Run a tool and require a specific exit code and message, for the
# CLI-misuse cases of the stress tier:
#   cmake -DCMD=<tool;args...> -DEXIT=<code> -DMATCH=<regex>
#         -P expect_exit.cmake
# stdout and stderr are matched together.
execute_process(COMMAND ${CMD}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
message("${out}")
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "expected exit ${EXIT}, got ${rc}")
endif()
if(NOT out MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}'")
endif()
