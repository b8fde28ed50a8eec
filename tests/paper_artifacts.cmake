# Regenerates every paper artifact into ACTUAL with REPORT (paper_report)
# and compares the CSVs with the committed ones in EXPECTED. A CSV that is
# missing, extra or different fails the test and is named.
#
#   cmake -DREPORT=<paper_report> -DEXPECTED=<results/paper> -DACTUAL=<scratch dir>
#         -P paper_artifacts.cmake
cmake_minimum_required(VERSION 3.16)
file(REMOVE_RECURSE "${ACTUAL}")
execute_process(COMMAND "${REPORT}" "${ACTUAL}" RESULT_VARIABLE status OUTPUT_QUIET
                ERROR_VARIABLE report_stderr)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "paper_report exited with ${status}:\n${report_stderr}")
endif()

file(GLOB expected RELATIVE "${EXPECTED}" "${EXPECTED}/*.csv")
file(GLOB actual RELATIVE "${ACTUAL}" "${ACTUAL}/*.csv")
set(problems "")
foreach(csv IN LISTS expected)
  if(NOT csv IN_LIST actual)
    string(APPEND problems "\n  committed but not generated: ${EXPECTED}/${csv}")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}/${csv}" "${ACTUAL}/${csv}"
                  RESULT_VARIABLE differs)
  if(differs)
    string(APPEND problems "\n  differs: ${EXPECTED}/${csv} vs ${ACTUAL}/${csv}")
  endif()
endforeach()
foreach(csv IN LISTS actual)
  if(NOT csv IN_LIST expected)
    string(APPEND problems "\n  generated but not committed: ${ACTUAL}/${csv}")
  endif()
endforeach()

if(problems)
  message(FATAL_ERROR "paper artifacts do not match ${EXPECTED}:${problems}\n"
          "If the change is intended, regenerate with: paper_report ${EXPECTED}")
endif()
list(LENGTH expected count)
message(STATUS "${count} paper CSVs match ${EXPECTED}")
