# Runs one example and diffs its output against the committed golden file.
#
# cmake -DEXE=<binary> [-DARGS="<arg> ..."] -DEXPECTED=<golden.txt>
#       -DACTUAL=<where to write this run's output> -P check_output.cmake
#
# The compared text is stdout followed by stderr. Fails on a non-zero
# exit or on any byte of difference; refresh a golden file by copying
# the ACTUAL file over it once the change in output is intended.

unset(ENV{OMM_TRACE}) # A trace request would add lines to the output.
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${ARGS} OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err RESULT_VARIABLE Result)
file(WRITE "${ACTUAL}" "${Out}${Err}")
if(NOT Result EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${Result}\n${Out}${Err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${EXPECTED}" "${ACTUAL}" RESULT_VARIABLE Differs)
if(NOT Differs EQUAL 0)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "output of ${EXE} differs from ${EXPECTED}")
endif()
