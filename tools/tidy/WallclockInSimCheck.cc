#include "WallclockInSimCheck.hh"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/Support/Regex.h"

using namespace clang::ast_matchers;

namespace clang::tidy::seesaw {

WallclockInSimCheck::WallclockInSimCheck(StringRef name,
                                         ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      allowedPathPattern_(Options.get(
          "AllowedPathPattern",
          "(src/harness|src/store|tests|bench|examples|"
          "tools)/"))
{
}

void
WallclockInSimCheck::storeOptions(ClangTidyOptions::OptionMap &opts)
{
    Options.store(opts, "AllowedPathPattern", allowedPathPattern_);
}

void
WallclockInSimCheck::registerMatchers(ast_matchers::MatchFinder *finder)
{
    // C wall-clock reads.
    finder->addMatcher(
        callExpr(callee(functionDecl(hasAnyName(
                     "::time", "::clock", "::gettimeofday",
                     "::clock_gettime", "::timespec_get", "::ftime"))))
            .bind("call"),
        this);

    // std::chrono::{system,steady,high_resolution}_clock::now().
    finder->addMatcher(
        callExpr(callee(functionDecl(
                     hasName("now"),
                     hasDeclContext(recordDecl(hasAnyName(
                         "::std::chrono::system_clock",
                         "::std::chrono::steady_clock",
                         "::std::chrono::high_resolution_clock"))))))
            .bind("call"),
        this);
}

void
WallclockInSimCheck::check(
    const ast_matchers::MatchFinder::MatchResult &result)
{
    const auto *call = result.Nodes.getNodeAs<CallExpr>("call");
    if (call == nullptr)
        return;
    SourceLocation loc = call->getBeginLoc();
    if (loc.isInvalid())
        return;
    const SourceManager &sm = *result.SourceManager;
    loc = sm.getExpansionLoc(loc);
    if (sm.isInSystemHeader(loc))
        return;
    const StringRef file = sm.getFilename(loc);
    if (llvm::Regex(allowedPathPattern_).match(file))
        return;

    std::string what = "wall-clock read";
    if (const FunctionDecl *fd = call->getDirectCallee())
        what = fd->getQualifiedNameAsString();

    diag(loc,
         "'%0' reads the wall clock inside a simulated component; "
         "simulated paths must be a pure function of (workload, "
         "config, seed) — keep wall time in src/harness")
        << what;
}

} // namespace clang::tidy::seesaw
