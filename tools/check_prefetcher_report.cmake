# Gates over a `tstream-bench run --policy ... --budget-sweep -o`
# report of the ext view (paper Sections 4.4/4.5):
#
#  1. Budget monotonicity: within every (cell, policy) series of the
#     "prefetcher_budget" table, coverage_pct must be non-decreasing
#     as cmob_entries grows — more CMOB never loses coverage. The
#     adaptive policy gets a 0.25pp tolerance: its per-window depth
#     feedback reacts to the replays the larger ring enables, so its
#     series is only approximately monotone; fixed/hybrid replay is
#     deterministic along the storage axis and is held to strict
#     non-decrease.
#  2. Adaptive pays off: in the "prefetcher_policy" table, the
#     adaptive policy's coverage x accuracy product must beat the
#     fixed policy's (same replay depth) on at least MIN_WINS rows.
#
# Products are compared in fixed-point (pct scaled by 10^4) because
# math(EXPR) is integer-only; the scale comfortably separates any two
# distinct printed percentages.
#
# Usage:
#   cmake -DREPORT=<bench json> [-DMIN_WINS=1]
#         -P check_prefetcher_report.cmake
if(NOT DEFINED REPORT)
  message(FATAL_ERROR "check_prefetcher_report.cmake needs -DREPORT")
endif()
if(NOT DEFINED MIN_WINS)
  set(MIN_WINS 1)
endif()

file(READ ${REPORT} doc)

# Parse a non-negative shortest-round-trip double ("67.925", "100")
# into pct * 10^4 as an integer. Exponent forms never appear for
# percentages in [0, 100]; reject them instead of misparsing.
function(to_fixed out val)
  if(val MATCHES "^([0-9]+)\\.([0-9]+)$")
    set(int ${CMAKE_MATCH_1})
    set(frac "${CMAKE_MATCH_2}0000")
    string(SUBSTRING ${frac} 0 4 frac)
  elseif(val MATCHES "^([0-9]+)$")
    set(int ${CMAKE_MATCH_1})
    set(frac 0)
  else()
    message(FATAL_ERROR "${REPORT}: cannot parse metric '${val}'")
  endif()
  math(EXPR fixed "${int} * 10000 + ${frac}")
  set(${out} ${fixed} PARENT_SCOPE)
endfunction()

set(budget_series 0)
set(policy_rows 0)
set(adaptive_wins 0)

string(JSON nc LENGTH ${doc} cells)
math(EXPR clast "${nc} - 1")
foreach(ci RANGE ${clast})
  string(JSON cid GET ${doc} cells ${ci} id)
  string(JSON nr LENGTH ${doc} cells ${ci} rows)
  if(nr EQUAL 0)
    continue()
  endif()
  math(EXPR rlast "${nr} - 1")

  # -- gate 1: per-(trace, policy) budget series are monotone --------
  set(prev_key "")
  set(prev_cov -1)
  foreach(ri RANGE ${rlast})
    string(JSON table GET ${doc} cells ${ci} rows ${ri} table)
    if(NOT table STREQUAL "prefetcher_budget")
      continue()
    endif()
    string(JSON policy GET ${doc} cells ${ci} rows ${ri} policy)
    string(JSON trace GET ${doc} cells ${ci} rows ${ri} trace)
    string(JSON cov GET ${doc} cells ${ci} rows ${ri} metrics
           coverage_pct)
    if(NOT "${trace}/${policy}" STREQUAL "${prev_key}")
      set(prev_key "${trace}/${policy}")
      set(prev_cov -1)
      math(EXPR budget_series "${budget_series} + 1")
    endif()
    if(policy STREQUAL "adaptive")
      set(tolerance 0.25)
    else()
      set(tolerance 0)
    endif()
    to_fixed(fcov ${cov})
    to_fixed(ftol ${tolerance})
    math(EXPR floor "${fcov} + ${ftol}")
    if(NOT prev_cov EQUAL -1 AND floor LESS prev_cov)
      message(FATAL_ERROR
          "${REPORT}: cell '${cid}' ${trace}/${policy}: coverage "
          "${cov}% dropped more than ${tolerance}pp below the "
          "smaller-CMOB point at a larger budget (non-monotone)")
    endif()
    if(fcov GREATER prev_cov)
      set(prev_cov ${fcov})
    endif()
  endforeach()

  # -- gate 2: adaptive cov x acc beats fixed on >= MIN_WINS rows ----
  # Policy rows come grouped per trace (fixed, adaptive, ... in
  # --policy order), so pair them up by trace kind.
  foreach(ri RANGE ${rlast})
    string(JSON table GET ${doc} cells ${ci} rows ${ri} table)
    if(NOT table STREQUAL "prefetcher_policy")
      continue()
    endif()
    string(JSON policy GET ${doc} cells ${ci} rows ${ri} policy)
    string(JSON trace GET ${doc} cells ${ci} rows ${ri} trace)
    string(JSON cov GET ${doc} cells ${ci} rows ${ri} metrics
           coverage_pct)
    string(JSON acc GET ${doc} cells ${ci} rows ${ri} metrics
           accuracy_pct)
    to_fixed(fcov ${cov})
    to_fixed(facc ${acc})
    math(EXPR product "(${fcov} / 100) * (${facc} / 100)")
    if(policy STREQUAL "fixed")
      set(fixed_product_${trace} ${product})
      math(EXPR policy_rows "${policy_rows} + 1")
    elseif(policy STREQUAL "adaptive")
      if(NOT DEFINED fixed_product_${trace})
        message(FATAL_ERROR
            "${REPORT}: cell '${cid}': adaptive row without a "
            "preceding fixed row for trace '${trace}'")
      endif()
      if(product GREATER fixed_product_${trace})
        math(EXPR adaptive_wins "${adaptive_wins} + 1")
      endif()
      unset(fixed_product_${trace})
    endif()
  endforeach()
endforeach()

if(budget_series EQUAL 0)
  message(FATAL_ERROR
      "${REPORT}: no prefetcher_budget rows — was the report made "
      "with --budget-sweep?")
endif()
if(policy_rows EQUAL 0)
  message(FATAL_ERROR
      "${REPORT}: no fixed/adaptive prefetcher_policy pairs — was "
      "the report made with --policy fixed,adaptive,...?")
endif()
if(adaptive_wins LESS MIN_WINS)
  message(FATAL_ERROR
      "${REPORT}: adaptive beat fixed's coverage x accuracy on only "
      "${adaptive_wins} of ${policy_rows} rows (need ${MIN_WINS})")
endif()
message(STATUS
    "prefetcher gates pass: ${budget_series} monotone budget series, "
    "adaptive beats fixed on ${adaptive_wins}/${policy_rows} rows")
