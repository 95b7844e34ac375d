# One paper artifact against its golden: run a bench or example binary
# and compare its stdout byte for byte with the committed file. With
# HBBP_UPDATE_GOLDEN=1 in the environment, rewrite the golden instead.
#
#   cmake -DBINARY=<binary> -DGOLDEN=<golden .txt> -DOUTPUT=<actual .txt>
#         -P artifact_golden.cmake

get_filename_component(output_dir ${OUTPUT} DIRECTORY)
file(MAKE_DIRECTORY ${output_dir})
execute_process(COMMAND ${BINARY} OUTPUT_FILE ${OUTPUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited with '${rc}'")
endif()

if("$ENV{HBBP_UPDATE_GOLDEN}" STREQUAL "1")
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${OUTPUT} ${GOLDEN}
        COMMAND_ERROR_IS_FATAL ANY)
    message(STATUS "rewrote ${GOLDEN}")
    return()
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(differs)
    # diff is only a courtesy for the log; the comparison above decides.
    execute_process(COMMAND diff -u ${GOLDEN} ${OUTPUT})
    message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN} "
        "(actual output in ${OUTPUT})")
endif()
