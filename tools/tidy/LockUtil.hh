/**
 * @file
 * Shared helpers for the concurrency checks (seesaw-lock-order,
 * seesaw-lock-in-hot-path): naming mutex expressions and recognising
 * acquisition sites in the AST.
 *
 * Mutexes are identified by declaration, not by text: a `MemberExpr`
 * or `DeclRefExpr` names the underlying `ValueDecl`'s qualified name,
 * so `mutex_` in two different classes never collides and the same
 * mutex reached through `this->` or a reference compares equal. The
 * same naming is applied to the argument expressions of thread-safety
 * attributes (`SEESAW_ACQUIRE`, `SEESAW_EXCLUDES`, ...), which is what
 * lets the checks follow lock flow across translation units: a call to
 * a function whose *declaration* says it acquires `SegmentWriter::mutex_`
 * contributes an edge even though its body lives elsewhere.
 */

#ifndef SEESAW_TOOLS_TIDY_LOCK_UTIL_HH
#define SEESAW_TOOLS_TIDY_LOCK_UTIL_HH

#include <string>
#include <vector>

#include "clang/AST/Attr.h"
#include "clang/AST/Decl.h"
#include "clang/AST/Expr.h"

namespace clang::tidy::seesaw {

/** Decl-based name of a mutex expression ("" when unrecognised). */
std::string mutexName(const Expr *expr);

/** Names of the argument mutexes of attribute @p attr (for the
 *  variadic capability attributes); unrecognised args are dropped. */
template <typename AttrT>
std::vector<std::string>
attrMutexNames(const AttrT *attr)
{
    std::vector<std::string> names;
    for (const Expr *arg : attr->args()) {
        std::string name = mutexName(arg);
        if (!name.empty())
            names.push_back(std::move(name));
    }
    return names;
}

/** Whether @p type (canonical string) is a mutex-like lockable. */
bool isMutexType(const std::string &type);

/** Whether @p type (canonical string) is a scoped lock guard
 *  (std::lock_guard / unique_lock / scoped_lock / shared_lock,
 *  seesaw::MutexLock). */
bool isLockGuardType(const std::string &type);

/** Canonical printed type of @p decl's type. */
std::string canonicalTypeString(const ValueDecl *decl);

} // namespace clang::tidy::seesaw

#endif // SEESAW_TOOLS_TIDY_LOCK_UTIL_HH
