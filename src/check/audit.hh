/**
 * @file
 * Shared vocabulary of the invariant-audit layer: audit cadence modes
 * and the structured violation report.
 *
 * Every build compiles the audit hooks in; the runtime mode
 * (`--audit=off|end|periodic|paranoid`) is their only switch. Off
 * builds no auditor, and since audits only observe, every mode gives
 * the result Off gives.
 */

#ifndef SEESAW_CHECK_AUDIT_HH
#define SEESAW_CHECK_AUDIT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace seesaw::check {

/** When the registered invariant checks run. */
enum class AuditMode : std::uint8_t
{
    Off,      //!< never
    End,      //!< once, at end of run (the default)
    Periodic, //!< every AuditOptions::periodEvents events + at end
    Paranoid, //!< every event, every coherence transition, and at end
};

/** Runtime audit configuration (part of the system configs). */
struct AuditOptions
{
    AuditMode mode = AuditMode::End;

    /** Events between audits in Periodic mode. */
    std::uint64_t periodEvents = 65'536;
};

/** Parse "off|end|periodic|paranoid" (fatal on anything else). */
AuditMode parseAuditMode(std::string_view text);

/** The lower-case name parseAuditMode() accepts for @p mode. */
const char *auditModeName(AuditMode mode);

/**
 * One invariant violation, as reported by a check. The default
 * response is to print the report and abort — a violation means the
 * simulator state is corrupt and every number derived from it suspect.
 */
struct Violation
{
    std::string check; //!< registered check name, e.g. "l1.partition"
    int core = -1;     //!< offending core, -1 for single-core systems
    Addr addr = 0;     //!< offending (physical or virtual) address
    Cycles cycle = 0;  //!< simulation cycle when the audit caught it
    std::string detail; //!< human-readable explanation
};

/** One-line rendering: check/core/address/cycle/detail. */
std::string formatViolation(const Violation &v);

} // namespace seesaw::check

#endif // SEESAW_CHECK_AUDIT_HH
