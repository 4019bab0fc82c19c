#include "AuditSideEffectCheck.hh"

#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::seesaw {

AuditSideEffectCheck::AuditSideEffectCheck(StringRef name,
                                           ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      auditorClass_(Options.get("AuditorClass",
                                "::seesaw::check::InvariantAuditor"))
{
}

void
AuditSideEffectCheck::storeOptions(ClangTidyOptions::OptionMap &opts)
{
    Options.store(opts, "AuditorClass", auditorClass_);
}

void
AuditSideEffectCheck::registerMatchers(ast_matchers::MatchFinder *finder)
{
    finder->addMatcher(
        cxxMemberCallExpr(
            callee(cxxMethodDecl(hasName("registerCheck"),
                                 ofClass(hasName(auditorClass_)))),
            hasArgument(1, expr().bind("callback"))),
        this);
}

bool
AuditSideEffectCheck::isNonLocal(const Expr *e, const LambdaExpr *lambda,
                                 const SourceManager &sm) const
{
    // Peel projections until we reach the root entity.
    while (e != nullptr) {
        e = e->IgnoreParenImpCasts();
        if (const auto *member = dyn_cast<MemberExpr>(e)) {
            e = member->getBase();
            continue;
        }
        if (const auto *sub = dyn_cast<ArraySubscriptExpr>(e)) {
            e = sub->getBase();
            continue;
        }
        if (const auto *unary = dyn_cast<UnaryOperator>(e)) {
            if (unary->getOpcode() == UO_Deref) {
                e = unary->getSubExpr();
                continue;
            }
            return false;
        }
        if (const auto *op = dyn_cast<CXXOperatorCallExpr>(e)) {
            // v[i], *p through overloaded operators: recurse into the
            // object argument.
            if (op->getNumArgs() >= 1 &&
                (op->getOperator() == OO_Subscript ||
                 op->getOperator() == OO_Star ||
                 op->getOperator() == OO_Arrow)) {
                e = op->getArg(0);
                continue;
            }
            return false;
        }
        if (isa<CXXThisExpr>(e)) {
            // Inside the lambda body, `this` is the *captured*
            // enclosing-class pointer: member state, hence non-local.
            return true;
        }
        if (const auto *ref = dyn_cast<DeclRefExpr>(e)) {
            const auto *var = dyn_cast<VarDecl>(ref->getDecl());
            if (var == nullptr)
                return false;
            if (var->hasGlobalStorage())
                return true;
            // Declared inside the lambda (parameters included) =>
            // local scratch. Anything else reached from the body is a
            // capture of enclosing state.
            const SourceRange lambda_range = lambda->getSourceRange();
            return !sm.isPointWithin(var->getLocation(),
                                     lambda_range.getBegin(),
                                     lambda_range.getEnd());
        }
        return false;
    }
    return false;
}

void
AuditSideEffectCheck::check(
    const ast_matchers::MatchFinder::MatchResult &result)
{
    const auto *callback = result.Nodes.getNodeAs<Expr>("callback");
    if (callback == nullptr)
        return;
    ASTContext &ctx = *result.Context;
    const SourceManager &sm = *result.SourceManager;

    // The CheckFn argument is usually a lambda wrapped in implicit
    // std::function conversions; dig it out.
    auto lambdas =
        match(findAll(lambdaExpr().bind("lambda")), *callback, ctx);
    if (lambdas.empty())
        return;
    const auto *lambda = lambdas.front().getNodeAs<LambdaExpr>("lambda");
    if (lambda == nullptr || lambda->getBody() == nullptr)
        return;
    const Stmt &body = *lambda->getBody();

    auto emit = [&](SourceLocation loc, StringRef how) {
        loc = sm.getExpansionLoc(loc);
        if (loc.isInvalid())
            return;
        diag(loc,
             "audit callback %0; every audit mode must give the "
             "result audits off gives, so they must not mutate "
             "simulator state (report via the AuditContext instead)")
            << how;
    };

    // Writes: assignments and increments whose target is non-local.
    for (const auto &m : match(
             findAll(binaryOperator(isAssignmentOperator()).bind("bin")),
             body, ctx)) {
        const auto *bin = m.getNodeAs<BinaryOperator>("bin");
        if (bin != nullptr && isNonLocal(bin->getLHS(), lambda, sm))
            emit(bin->getOperatorLoc(), "assigns to captured state");
    }
    for (const auto &m :
         match(findAll(unaryOperator(hasAnyOperatorName("++", "--"))
                           .bind("un")),
               body, ctx)) {
        const auto *un = m.getNodeAs<UnaryOperator>("un");
        if (un != nullptr && isNonLocal(un->getSubExpr(), lambda, sm))
            emit(un->getOperatorLoc(),
                 "increments/decrements captured state");
    }

    // Non-const member calls on non-local objects.
    for (const auto &m : match(
             findAll(cxxMemberCallExpr().bind("call")), body, ctx)) {
        const auto *call = m.getNodeAs<CXXMemberCallExpr>("call");
        if (call == nullptr)
            continue;
        const CXXMethodDecl *method = call->getMethodDecl();
        if (method == nullptr || method->isConst() || method->isStatic())
            continue;
        if (isNonLocal(call->getImplicitObjectArgument(), lambda, sm))
            emit(call->getExprLoc(),
                 "calls a non-const member on captured state");
    }
}

} // namespace clang::tidy::seesaw
