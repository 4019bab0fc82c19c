/**
 * @file
 * seesaw-audit-side-effect: flags audit callbacks registered with
 * InvariantAuditor::registerCheck whose body mutates non-local state
 * — assignments or increments through captured variables or a
 * captured `this`, and non-const member calls on captured objects.
 *
 * Rule: audits are observers. They run only when the --audit mode is
 * not off, and every mode must give the result off gives, so any state
 * an audit mutates would make audited and unaudited runs diverge.
 * Callbacks may read
 * anything, build local scratch, and report via the AuditContext
 * parameter — nothing else.
 */

#ifndef SEESAW_TOOLS_TIDY_AUDIT_SIDE_EFFECT_CHECK_HH
#define SEESAW_TOOLS_TIDY_AUDIT_SIDE_EFFECT_CHECK_HH

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::seesaw {

class AuditSideEffectCheck : public ClangTidyCheck
{
  public:
    AuditSideEffectCheck(StringRef name, ClangTidyContext *context);

    bool
    isLanguageVersionSupported(const LangOptions &lang_opts) const override
    {
        return lang_opts.CPlusPlus;
    }

    void registerMatchers(ast_matchers::MatchFinder *finder) override;
    void check(const ast_matchers::MatchFinder::MatchResult &result)
        override;
    void storeOptions(ClangTidyOptions::OptionMap &opts) override;

  private:
    /** Qualified name of the auditor class whose registrations are
     *  inspected. */
    const std::string auditorClass_;

    /** True when @p e (an lvalue being written, or a member-call
     *  receiver) bottoms out in state declared outside @p lambda. */
    bool isNonLocal(const Expr *e, const LambdaExpr *lambda,
                    const SourceManager &sm) const;
};

} // namespace clang::tidy::seesaw

#endif // SEESAW_TOOLS_TIDY_AUDIT_SIDE_EFFECT_CHECK_HH
