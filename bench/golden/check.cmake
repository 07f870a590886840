# Runs one experiment and compares its stdout with the recorded table:
#
#   cmake -DEXE=<binary> -DGOLDEN=<table.txt> -DOUT=<stdout file>
#         -P check.cmake
#
# The experiments are deterministic, so any difference is a behaviour
# change (or, on another toolchain, a determinism defect).  --jobs is fixed
# because exp21 echoes it.  To re-record after an intended change, copy
# OUT over GOLDEN.
execute_process(COMMAND ${EXE} --jobs=2 OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN} (see ${OUT})")
endif()
