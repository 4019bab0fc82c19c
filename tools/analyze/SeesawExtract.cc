/**
 * @file
 * seesaw-analyze extract phase: a Clang LibTooling tool run once per
 * TU (scripts/analyze.py drives it over compile_commands.json) that
 * emits per-TU facts as JSON on stdout:
 *
 *  - config_fields: every SystemConfig field path, one level of
 *    nested parameter structs expanded ("os.memBytes").
 *  - config_reads: every read/write of a config field, attributed to
 *    the enclosing class and function. Provenance is *type-based*: a
 *    read of `params.memBytes` where `params` is an OsParams maps to
 *    "os.memBytes" no matter which object holds it. Reads inside
 *    MultiConfigEngine are classified by their base expression
 *    ("front" = configs_.front() or an alias of it, "indexed" =
 *    configs_[i] / sub.config) so the checker can tell front-end
 *    feeds from per-substrate feeds.
 *  - key_fields / geometry_fields: fields read inside frontEndKey() /
 *    tlbGeometryKey() (helper functions, such as the field-registry
 *    role writers, are folded in at check time via the call graph).
 *  - stat_regs / stat_reads: StatGroup registrations (with the bound
 *    handle member when registered in a ctor-init or assignment) and
 *    collection-path reads (get-by-name, handle value()/count()/...,
 *    dump).
 *  - members: owning-member graph (by-value, unique_ptr, vector<...>)
 *    for the ownership closures.
 *  - mutations / calls / overrides: cross-class non-const calls and
 *    member writes, the repo call graph, and virtual overrides for
 *    the substrate-isolation reachability check.
 *
 * Lines carrying `// seesaw-analyze-ignore: <reason>` produce no
 * facts; the suppression itself is recorded (and policed by
 * scripts/check_nolint.py).
 *
 * `#include` edges are deliberately NOT extracted here: the driver
 * scans them with a plain-text pass (stable across Clang versions and
 * testable without the toolchain).
 */

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang;

namespace {

llvm::cl::OptionCategory Cat("seesaw-extract options");
llvm::cl::opt<std::string>
    RepoOpt("repo", llvm::cl::desc("repository root (facts outside it "
                                   "are dropped; paths made relative)"),
            llvm::cl::init("."), llvm::cl::cat(Cat));
llvm::cl::opt<std::string>
    OutOpt("out", llvm::cl::desc("output file ('-' = stdout)"),
           llvm::cl::init("-"), llvm::cl::cat(Cat));
llvm::cl::opt<std::string> ConfigStructOpt(
    "config-struct",
    llvm::cl::desc("root configuration struct name"),
    llvm::cl::init("SystemConfig"), llvm::cl::cat(Cat));
llvm::cl::opt<std::string>
    KeyFnOpt("key-fn", llvm::cl::desc("front-end-key function name"),
             llvm::cl::init("frontEndKey"), llvm::cl::cat(Cat));
llvm::cl::opt<std::string>
    GeomFnOpt("geom-fn",
              llvm::cl::desc("TLB-geometry-key function name"),
              llvm::cl::init("tlbGeometryKey"), llvm::cl::cat(Cat));

std::string RepoPrefix; // real path of the repo root + "/"

// StringRef::startswith was removed in newer LLVM; spell it out to
// stay buildable across clang 14..19.
bool
hasPrefix(llvm::StringRef S, llvm::StringRef P)
{
    return S.size() >= P.size() && S.take_front(P.size()) == P;
}

std::string
jsonEscape(llvm::StringRef S)
{
    std::string Out;
    Out.reserve(S.size());
    for (char C : S) {
        switch (C) {
        case '"': Out += "\\\""; break;
        case '\\': Out += "\\\\"; break;
        case '\n': Out += "\\n"; break;
        case '\t': Out += "\\t"; break;
        case '\r': Out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(C) < 0x20) {
                char Buf[8];
                snprintf(Buf, sizeof(Buf), "\\u%04x", C);
                Out += Buf;
            } else {
                Out += C;
            }
        }
    }
    return Out;
}

/** The facts accumulator: each array holds fully serialized JSON
 *  objects in a set, which both dedupes and gives stable output. */
struct Facts {
    std::set<std::string> configFields, keyFields, geomFields,
        configReads, statRegs, statReads, members, mutations, calls,
        overrides, ignores, tus;
} G;

class FactsVisitor : public RecursiveASTVisitor<FactsVisitor>
{
  public:
    explicit FactsVisitor(ASTContext &Ctx) : Ctx_(Ctx) {}

    // ---- repo / location helpers -------------------------------

    std::string relFile(SourceLocation Loc)
    {
        if (Loc.isInvalid())
            return "";
        const SourceManager &SM = Ctx_.getSourceManager();
        const SourceLocation E = SM.getExpansionLoc(Loc);
        const FileID FID = SM.getFileID(E);
        auto It = fileCache_.find(FID);
        if (It != fileCache_.end())
            return It->second;
        std::string Rel;
        llvm::StringRef Name = SM.getFilename(E);
        if (!Name.empty()) {
            llvm::SmallString<256> Abs(Name);
            llvm::sys::fs::make_absolute(Abs);
            llvm::sys::path::remove_dots(Abs, /*remove_dot_dot=*/true);
            llvm::SmallString<256> Real;
            if (!llvm::sys::fs::real_path(Abs, Real))
                Abs = Real;
            llvm::StringRef S(Abs);
            if (hasPrefix(S, RepoPrefix))
                Rel = S.drop_front(RepoPrefix.size()).str();
        }
        fileCache_[FID] = Rel;
        return Rel;
    }

    bool inRepo(const Decl *D)
    {
        return D && !relFile(D->getLocation()).empty();
    }

    unsigned lineOf(SourceLocation Loc)
    {
        const SourceManager &SM = Ctx_.getSourceManager();
        return SM.getExpansionLineNumber(Loc);
    }

    /** True (and record the suppression) when the source line of
     *  @p Loc carries the seesaw-analyze-ignore marker. */
    bool ignored(SourceLocation Loc)
    {
        const std::string File = relFile(Loc);
        if (File.empty())
            return true; // outside the repo: no fact either way
        const SourceManager &SM = Ctx_.getSourceManager();
        const SourceLocation E = SM.getExpansionLoc(Loc);
        const std::pair<FileID, unsigned> Dec =
            SM.getDecomposedLoc(E);
        bool Invalid = false;
        const llvm::StringRef Buf =
            SM.getBufferData(Dec.first, &Invalid);
        if (Invalid)
            return false;
        size_t Begin = Buf.rfind('\n', Dec.second);
        Begin = Begin == llvm::StringRef::npos ? 0 : Begin + 1;
        size_t End = Buf.find('\n', Dec.second);
        End = End == llvm::StringRef::npos ? Buf.size() : End;
        if (!Buf.slice(Begin, End).contains("seesaw-analyze-ignore"))
            return false;
        G.ignores.insert("{\"file\": \"" + jsonEscape(File) +
                         "\", \"line\": " +
                         std::to_string(lineOf(Loc)) + "}");
        return true;
    }

    // ---- name helpers ------------------------------------------

    /** Class name with namespaces stripped, nested records joined
     *  with "::" (MultiConfigEngine::Substrate). */
    static std::string className(const CXXRecordDecl *RD)
    {
        std::vector<std::string> Parts;
        for (const DeclContext *DC = RD; DC && !DC->isTranslationUnit();
             DC = DC->getParent()) {
            if (const auto *R = llvm::dyn_cast<CXXRecordDecl>(DC)) {
                if (R->isLambda() || R->getIdentifier() == nullptr)
                    continue;
                Parts.push_back(R->getNameAsString());
            }
        }
        std::string Out;
        for (auto It = Parts.rbegin(); It != Parts.rend(); ++It) {
            if (!Out.empty())
                Out += "::";
            Out += *It;
        }
        return Out;
    }

    static std::string funcName(const FunctionDecl *FD)
    {
        if (const auto *MD = llvm::dyn_cast<CXXMethodDecl>(FD)) {
            const std::string Cls = className(MD->getParent());
            if (!Cls.empty())
                return Cls + "::" + MD->getNameAsString();
        }
        return FD->getNameAsString();
    }

    std::string currentFunc() const
    {
        return funcStack_.empty() ? ""
                                  : funcName(funcStack_.back());
    }

    std::string currentClass() const
    {
        for (auto It = funcStack_.rbegin(); It != funcStack_.rend();
             ++It)
            if (const auto *MD = llvm::dyn_cast<CXXMethodDecl>(*It))
                return className(MD->getParent());
        return "";
    }

    // ---- traversal scaffolding ---------------------------------

    /** Skip whole subtrees outside the repo (system headers):
     *  everything we extract lives in repo files. */
    bool TraverseDecl(Decl *D)
    {
        if (D && !llvm::isa<TranslationUnitDecl>(D) &&
            !llvm::isa<NamespaceDecl>(D) &&
            !llvm::isa<LinkageSpecDecl>(D) &&
            D->getLocation().isValid() &&
            relFile(D->getLocation()).empty())
            return true;
        return RecursiveASTVisitor::TraverseDecl(D);
    }

#define SEESAW_TRACK(KIND)                                            \
    bool Traverse##KIND(KIND *D)                                      \
    {                                                                 \
        const bool Lambda =                                           \
            llvm::isa<CXXMethodDecl>(D) &&                            \
            llvm::cast<CXXMethodDecl>(D)->getParent()->isLambda();    \
        if (!Lambda)                                                  \
            funcStack_.push_back(D);                                  \
        const bool R = RecursiveASTVisitor::Traverse##KIND(D);        \
        if (!Lambda)                                                  \
            funcStack_.pop_back();                                    \
        return R;                                                     \
    }
    SEESAW_TRACK(FunctionDecl)
    SEESAW_TRACK(CXXMethodDecl)
    SEESAW_TRACK(CXXConstructorDecl)
    SEESAW_TRACK(CXXDestructorDecl)
    SEESAW_TRACK(CXXConversionDecl)
#undef SEESAW_TRACK

    // ---- config struct registration ----------------------------

    bool VisitCXXRecordDecl(CXXRecordDecl *D)
    {
        if (!D->isThisDeclarationADefinition() || D->isLambda())
            return true;
        if (!inRepo(D))
            return true;
        recordMembers(D);
        if (D->getNameAsString() == ConfigStructOpt)
            registerConfigStruct(D);
        return true;
    }

    void registerConfigStruct(const CXXRecordDecl *D)
    {
        const std::string Root = D->getNameAsString();
        configPrefix_[D->getCanonicalDecl()] = "";
        for (const FieldDecl *F : D->fields()) {
            const std::string Name = F->getNameAsString();
            const CXXRecordDecl *R =
                F->getType()->getAsCXXRecordDecl();
            if (R && R->hasDefinition() && inRepo(R)) {
                R = R->getDefinition();
                configPrefix_[R->getCanonicalDecl()] = Name + ".";
                emitConfigField(Name, Root);
                for (const FieldDecl *L : R->fields())
                    emitConfigField(Name + "." + L->getNameAsString(),
                                    className(R));
            } else {
                emitConfigField(Name, Root);
            }
        }
    }

    void emitConfigField(const std::string &Path,
                         const std::string &Record)
    {
        G.configFields.insert("{\"path\": \"" + jsonEscape(Path) +
                              "\", \"record\": \"" +
                              jsonEscape(Record) + "\"}");
    }

    // ---- owning-member graph -----------------------------------

    void recordMembers(const CXXRecordDecl *D)
    {
        const std::string Cls = className(D);
        if (Cls.empty())
            return;
        for (const FieldDecl *F : D->fields()) {
            bool Owning = true;
            const CXXRecordDecl *Inner =
                innerRecord(F->getType(), Owning);
            if (!Inner || !inRepo(Inner))
                continue;
            const std::string Type = className(Inner);
            if (Type.empty())
                continue;
            G.members.insert(
                "{\"class\": \"" + jsonEscape(Cls) +
                "\", \"member\": \"" +
                jsonEscape(F->getNameAsString()) + "\", \"type\": \"" +
                jsonEscape(Type) + "\", \"owning\": " +
                (Owning ? "true" : "false") + "}");
        }
    }

    /** Resolve the interesting record behind a member type:
     *  T, T*, T&, unique_ptr<T>, vector<unique_ptr<T>>, ... with
     *  @p Owning cleared once a raw pointer/reference intervenes. */
    const CXXRecordDecl *innerRecord(QualType T, bool &Owning,
                                     int Depth = 0)
    {
        if (Depth > 4)
            return nullptr;
        if (T->isReferenceType())
            Owning = false; // reference members are borrowed
        T = T.getNonReferenceType().getCanonicalType();
        if (T->isPointerType()) {
            Owning = false;
            return innerRecord(T->getPointeeType(), Owning,
                               Depth + 1);
        }
        const CXXRecordDecl *R = T->getAsCXXRecordDecl();
        if (!R)
            return nullptr;
        if (const auto *Spec = llvm::dyn_cast<
                ClassTemplateSpecializationDecl>(R)) {
            const std::string Name = Spec->getNameAsString();
            if (Name == "unique_ptr" || Name == "shared_ptr" ||
                Name == "vector" || Name == "optional" ||
                Name == "array" || Name == "deque") {
                const auto &Args = Spec->getTemplateArgs();
                if (Args.size() == 0 ||
                    Args.get(0).getKind() != TemplateArgument::Type)
                    return nullptr;
                return innerRecord(Args.get(0).getAsType(), Owning,
                                   Depth + 1);
            }
            return nullptr;
        }
        return R;
    }

    // ---- config reads ------------------------------------------

    const CXXRecordDecl *baseRecordOf(const MemberExpr *ME)
    {
        QualType BT =
            ME->getBase()->IgnoreParenImpCasts()->getType();
        if (ME->isArrow() && BT->isPointerType())
            BT = BT->getPointeeType();
        const CXXRecordDecl *R = BT->getAsCXXRecordDecl();
        return R ? R->getCanonicalDecl() : nullptr;
    }

    bool VisitMemberExpr(MemberExpr *ME)
    {
        const auto *FD =
            llvm::dyn_cast<FieldDecl>(ME->getMemberDecl());
        if (!FD || funcStack_.empty())
            return true;
        const CXXRecordDecl *BR = baseRecordOf(ME);
        if (!BR)
            return true;
        const auto It = configPrefix_.find(BR);
        if (It == configPrefix_.end())
            return true;
        const std::string Path = It->second + FD->getNameAsString();

        bool Write = false;
        if (selectedIntoOrWritten(ME, Write))
            return true; // outer (leaf) MemberExpr records instead
        if (ignored(ME->getBeginLoc()))
            return true;

        const std::string Fn = currentFunc();
        const std::string Unq = funcStack_.back()->getNameAsString();
        if (!Write && Unq == KeyFnOpt) {
            G.keyFields.insert("\"" + jsonEscape(Path) + "\"");
            return true;
        }
        if (!Write && Unq == GeomFnOpt) {
            G.geomFields.insert("\"" + jsonEscape(Path) + "\"");
            return true;
        }

        G.configReads.insert(
            "{\"path\": \"" + jsonEscape(Path) + "\", \"class\": \"" +
            jsonEscape(currentClass()) + "\", \"func\": \"" +
            jsonEscape(Fn) + "\", \"base\": \"" +
            jsonEscape(classifyBase(ME)) + "\", \"file\": \"" +
            jsonEscape(relFile(ME->getBeginLoc())) +
            "\", \"line\": " +
            std::to_string(lineOf(ME->getBeginLoc())) +
            ", \"write\": " + (Write ? "true" : "false") + "}");
        return true;
    }

    /** Walk up through casts/parens. Returns true when this
     *  MemberExpr is itself the base of an enclosing config-field
     *  selection (the leaf records the fact); sets @p Write when the
     *  expression is the target of an assignment or ++/--. */
    bool selectedIntoOrWritten(const Expr *E, bool &Write)
    {
        const Expr *Child = E;
        DynTypedNode Node = DynTypedNode::create(*E);
        for (int Hops = 0; Hops < 16; ++Hops) {
            const auto Parents = Ctx_.getParents(Node);
            if (Parents.empty())
                return false;
            const DynTypedNode Parent = Parents[0];
            if (const Stmt *PS = Parent.get<Stmt>()) {
                if (llvm::isa<ImplicitCastExpr>(PS) ||
                    llvm::isa<ParenExpr>(PS) ||
                    llvm::isa<ExprWithCleanups>(PS)) {
                    Child = llvm::cast<Expr>(PS);
                    Node = Parent;
                    continue;
                }
                if (const auto *PME =
                        llvm::dyn_cast<MemberExpr>(PS)) {
                    const CXXRecordDecl *PR = baseRecordOf(PME);
                    if (llvm::isa<FieldDecl>(PME->getMemberDecl()) &&
                        PME->getBase()->IgnoreParenImpCasts() ==
                            Child &&
                        PR && configPrefix_.count(PR))
                        return true;
                    return false;
                }
                if (const auto *BO =
                        llvm::dyn_cast<BinaryOperator>(PS)) {
                    Write = BO->isAssignmentOp() &&
                            BO->getLHS()->IgnoreParenImpCasts() ==
                                Child;
                    return false;
                }
                if (const auto *UO =
                        llvm::dyn_cast<UnaryOperator>(PS)) {
                    Write = UO->isIncrementDecrementOp();
                    return false;
                }
            }
            return false;
        }
        return false;
    }

    /** Classify the object a config read goes through; the checker
     *  only consults this for MultiConfigEngine reads. */
    std::string classifyBase(const MemberExpr *ME)
    {
        const Expr *E = ME->getBase()->IgnoreParenImpCasts();
        // Strip nested config-struct selections: c.os.memBytes -> c.
        while (const auto *M = llvm::dyn_cast<MemberExpr>(E)) {
            const CXXRecordDecl *R = baseRecordOf(M);
            if (R && configPrefix_.count(R) &&
                llvm::isa<FieldDecl>(M->getMemberDecl())) {
                E = M->getBase()->IgnoreParenImpCasts();
                continue;
            }
            break;
        }
        if (const auto *MC = llvm::dyn_cast<CXXMemberCallExpr>(E)) {
            const CXXMethodDecl *MD = MC->getMethodDecl();
            if (MD && MD->getNameAsString() == "front")
                return "front";
            return "unknown";
        }
        if (llvm::isa<CXXOperatorCallExpr>(E) ||
            llvm::isa<ArraySubscriptExpr>(E))
            return "indexed";
        if (const auto *M = llvm::dyn_cast<MemberExpr>(E)) {
            const std::string Name =
                M->getMemberDecl()->getNameAsString();
            if (Name == "config" || Name == "config_")
                return "indexed";
            return "member";
        }
        if (const auto *DR = llvm::dyn_cast<DeclRefExpr>(E)) {
            if (const auto *VD =
                    llvm::dyn_cast<VarDecl>(DR->getDecl())) {
                if (frontAliases_.count(VD))
                    return "front";
                if (indexedAliases_.count(VD))
                    return "indexed";
                if (llvm::isa<ParmVarDecl>(VD))
                    return "param";
                return "unknown";
            }
        }
        if (llvm::isa<CXXThisExpr>(E))
            return "member";
        return "unknown";
    }

    /** Track local aliases of whole config objects:
     *  `const SystemConfig &front = configs_.front();`  -> front
     *  `const SystemConfig &c = configs_[i];`           -> indexed */
    bool VisitVarDecl(VarDecl *VD)
    {
        if (!VD->hasInit())
            return true;
        bool Owning = true;
        const CXXRecordDecl *R = innerRecord(VD->getType(), Owning);
        if (!R)
            return true;
        const auto It = configPrefix_.find(R->getCanonicalDecl());
        if (It == configPrefix_.end() || !It->second.empty())
            return true; // only aliases of the ROOT config struct
        // Scan the initializer for the telltale source expression.
        std::vector<const Stmt *> Work = {VD->getInit()};
        while (!Work.empty()) {
            const Stmt *S = Work.back();
            Work.pop_back();
            if (!S)
                continue;
            if (const auto *MC =
                    llvm::dyn_cast<CXXMemberCallExpr>(S)) {
                const CXXMethodDecl *MD = MC->getMethodDecl();
                if (MD && MD->getNameAsString() == "front") {
                    frontAliases_.insert(VD);
                    return true;
                }
            }
            if (llvm::isa<CXXOperatorCallExpr>(S) ||
                llvm::isa<ArraySubscriptExpr>(S)) {
                indexedAliases_.insert(VD);
                return true;
            }
            if (const auto *M = llvm::dyn_cast<MemberExpr>(S)) {
                const std::string Name =
                    M->getMemberDecl()->getNameAsString();
                if (Name == "config" || Name == "config_") {
                    indexedAliases_.insert(VD);
                    return true;
                }
            }
            for (const Stmt *C : S->children())
                Work.push_back(C);
        }
        return true;
    }

    // ---- stats --------------------------------------------------

    static bool isStatGroupType(const CXXRecordDecl *R)
    {
        return R && R->getNameAsString() == "StatGroup";
    }

    static bool isStatHandleType(const CXXRecordDecl *R)
    {
        if (!R)
            return false;
        const std::string N = R->getNameAsString();
        return N == "StatScalar";
    }

    std::string literalArg(const CallExpr *CE)
    {
        if (CE->getNumArgs() < 1)
            return "<dynamic>";
        const Expr *A = CE->getArg(0)->IgnoreParenImpCasts();
        if (const auto *SL = llvm::dyn_cast<StringLiteral>(A))
            return SL->getString().str();
        return "<dynamic>";
    }

    std::string locKey(SourceLocation Loc)
    {
        const SourceManager &SM = Ctx_.getSourceManager();
        const SourceLocation E = SM.getExpansionLoc(Loc);
        return relFile(E) + ":" +
               std::to_string(SM.getExpansionLineNumber(E)) + ":" +
               std::to_string(SM.getExpansionColumnNumber(E));
    }

    bool VisitCXXMemberCallExpr(CXXMemberCallExpr *CE)
    {
        const CXXMethodDecl *MD = CE->getMethodDecl();
        if (!MD || funcStack_.empty())
            return true;
        const CXXRecordDecl *Parent = MD->getParent();
        const std::string Method = MD->getNameAsString();
        const std::string File = relFile(CE->getBeginLoc());

        if (isStatGroupType(Parent)) {
            if (Method == "scalar" || Method == "distribution" ||
                Method == "histogram") {
                // Registrations are production surface only; a test
                // exercising a local StatGroup is not a stat anyone
                // must collect.
                if (File.rfind("src/", 0) == 0 &&
                    !ignored(CE->getBeginLoc()))
                    rawRegs_.push_back({literalArg(CE),
                                        currentClass(), File,
                                        lineOf(CE->getBeginLoc()),
                                        locKey(CE->getBeginLoc())});
            } else if (Method == "get") {
                G.statReads.insert(
                    "{\"kind\": \"get\", \"name\": \"" +
                    jsonEscape(literalArg(CE)) +
                    "\", \"class\": \"\", \"member\": \"\"}");
            } else if (Method == "dump") {
                std::string Cls;
                const Expr *Obj =
                    CE->getImplicitObjectArgument()
                        ->IgnoreParenImpCasts();
                if (const auto *M =
                        llvm::dyn_cast<MemberExpr>(Obj))
                    if (const auto *F = llvm::dyn_cast<FieldDecl>(
                            M->getMemberDecl()))
                        Cls = className(llvm::cast<CXXRecordDecl>(
                            F->getParent()));
                G.statReads.insert(
                    "{\"kind\": \"dump\", \"name\": \"\", "
                    "\"class\": \"" +
                    jsonEscape(Cls) + "\", \"member\": \"\"}");
            }
        } else if (isStatHandleType(Parent)) {
            static const std::set<std::string> ReadMethods = {
                "value",     "count",    "samples", "mean",
                "min",       "max",      "total",   "variance",
                "bucketCount", "overflow", "bucketWidth"};
            if (ReadMethods.count(Method)) {
                const Expr *Obj =
                    CE->getImplicitObjectArgument()
                        ->IgnoreParenImpCasts();
                if (const auto *UO =
                        llvm::dyn_cast<UnaryOperator>(Obj))
                    Obj = UO->getSubExpr()->IgnoreParenImpCasts();
                if (const auto *M = llvm::dyn_cast<MemberExpr>(Obj))
                    if (const auto *F = llvm::dyn_cast<FieldDecl>(
                            M->getMemberDecl()))
                        G.statReads.insert(
                            "{\"kind\": \"handle\", \"name\": \"\", "
                            "\"class\": \"" +
                            jsonEscape(
                                className(llvm::cast<CXXRecordDecl>(
                                    F->getParent()))) +
                            "\", \"member\": \"" +
                            jsonEscape(F->getNameAsString()) +
                            "\"}");
            }
        }

        // Cross-class non-const calls feed the substrate-isolation
        // check.
        if (!MD->isConst() && !MD->isStatic() && Parent &&
            inRepo(Parent)) {
            const std::string Target = className(Parent);
            const std::string Cls = currentClass();
            if (!Target.empty() && Target != Cls &&
                !ignored(CE->getBeginLoc()))
                G.mutations.insert(
                    "{\"class\": \"" + jsonEscape(Cls) +
                    "\", \"func\": \"" + jsonEscape(currentFunc()) +
                    "\", \"target\": \"" + jsonEscape(Target) +
                    "\", \"name\": \"" + jsonEscape(Method) +
                    "\", \"kind\": \"call\", \"file\": \"" +
                    jsonEscape(File) + "\", \"line\": " +
                    std::to_string(lineOf(CE->getBeginLoc())) + "}");
        }
        return true;
    }

    /** Ctor-init-list stat binds:
     *  stProbes_(&stats_.scalar("probes")). */
    bool VisitCXXConstructorDecl(CXXConstructorDecl *CD)
    {
        if (!CD->isThisDeclarationADefinition())
            return true;
        for (const CXXCtorInitializer *Init : CD->inits()) {
            if (!Init->isAnyMemberInitializer())
                continue;
            const FieldDecl *F = Init->getAnyMember();
            bindRegCalls(Init->getInit(), F->getNameAsString());
        }
        return true;
    }

    /** Assignment stat binds: stX_ = &stats_.scalar("x"). */
    bool VisitBinaryOperator(BinaryOperator *BO)
    {
        if (funcStack_.empty())
            return true;
        if (BO->isAssignmentOp()) {
            const Expr *LHS = BO->getLHS()->IgnoreParenImpCasts();
            if (const auto *M = llvm::dyn_cast<MemberExpr>(LHS)) {
                if (const auto *F = llvm::dyn_cast<FieldDecl>(
                        M->getMemberDecl())) {
                    bool Owning = true;
                    if (isStatHandleType(
                            innerRecord(F->getType(), Owning)))
                        bindRegCalls(BO->getRHS(),
                                     F->getNameAsString());
                    // Cross-class member writes feed the
                    // substrate-isolation check.
                    const auto *PR = llvm::dyn_cast<CXXRecordDecl>(
                        F->getParent());
                    const std::string Target =
                        PR ? className(PR) : "";
                    const std::string Cls = currentClass();
                    if (PR && inRepo(PR) && !Target.empty() &&
                        Target != Cls &&
                        !ignored(BO->getBeginLoc()))
                        G.mutations.insert(
                            "{\"class\": \"" + jsonEscape(Cls) +
                            "\", \"func\": \"" +
                            jsonEscape(currentFunc()) +
                            "\", \"target\": \"" +
                            jsonEscape(Target) + "\", \"name\": \"" +
                            jsonEscape(F->getNameAsString()) +
                            "\", \"kind\": \"write\", \"file\": \"" +
                            jsonEscape(
                                relFile(BO->getBeginLoc())) +
                            "\", \"line\": " +
                            std::to_string(
                                lineOf(BO->getBeginLoc())) +
                            "}");
                }
            }
        }
        return true;
    }

    void bindRegCalls(const Stmt *Root, const std::string &Member)
    {
        std::vector<const Stmt *> Work = {Root};
        while (!Work.empty()) {
            const Stmt *S = Work.back();
            Work.pop_back();
            if (!S)
                continue;
            if (const auto *MC =
                    llvm::dyn_cast<CXXMemberCallExpr>(S)) {
                const CXXMethodDecl *MD = MC->getMethodDecl();
                if (MD && isStatGroupType(MD->getParent())) {
                    const std::string N = MD->getNameAsString();
                    if (N == "scalar" || N == "distribution" ||
                        N == "histogram")
                        bindAt_[locKey(MC->getBeginLoc())] = Member;
                }
            }
            for (const Stmt *C : S->children())
                Work.push_back(C);
        }
    }

    // ---- call graph / overrides --------------------------------

    bool VisitCallExpr(CallExpr *CE)
    {
        if (funcStack_.empty())
            return true;
        const FunctionDecl *Callee = CE->getDirectCallee();
        if (!Callee || !inRepo(Callee))
            return true;
        G.calls.insert("{\"caller\": \"" +
                       jsonEscape(currentFunc()) +
                       "\", \"callee\": \"" +
                       jsonEscape(funcName(Callee)) + "\"}");
        return true;
    }

    bool VisitCXXMethodDecl(CXXMethodDecl *MD)
    {
        if (!inRepo(MD))
            return true;
        for (const CXXMethodDecl *Base : MD->overridden_methods()) {
            if (!inRepo(Base))
                continue;
            G.overrides.insert("{\"derived\": \"" +
                               jsonEscape(funcName(MD)) +
                               "\", \"base\": \"" +
                               jsonEscape(funcName(Base)) + "\"}");
        }
        return true;
    }

    void finish()
    {
        for (const RawReg &R : rawRegs_) {
            const auto It = bindAt_.find(R.loc);
            const std::string Member =
                It == bindAt_.end() ? "" : It->second;
            G.statRegs.insert(
                "{\"name\": \"" + jsonEscape(R.name) +
                "\", \"class\": \"" + jsonEscape(R.cls) +
                "\", \"member\": \"" + jsonEscape(Member) +
                "\", \"file\": \"" + jsonEscape(R.file) +
                "\", \"line\": " + std::to_string(R.line) + "}");
        }
    }

  private:
    struct RawReg {
        std::string name, cls, file;
        unsigned line;
        std::string loc;
    };

    ASTContext &Ctx_;
    std::vector<const FunctionDecl *> funcStack_;
    llvm::DenseMap<const CXXRecordDecl *, std::string> configPrefix_;
    llvm::DenseMap<FileID, std::string> fileCache_;
    std::set<const VarDecl *> frontAliases_, indexedAliases_;
    std::vector<RawReg> rawRegs_;
    std::map<std::string, std::string> bindAt_;
};

class FactsConsumer : public ASTConsumer
{
  public:
    void HandleTranslationUnit(ASTContext &Ctx) override
    {
        FactsVisitor V(Ctx);
        V.TraverseDecl(Ctx.getTranslationUnitDecl());
        V.finish();
    }
};

class FactsAction : public ASTFrontendAction
{
  public:
    std::unique_ptr<ASTConsumer>
    CreateASTConsumer(CompilerInstance &, llvm::StringRef InFile)
        override
    {
        llvm::SmallString<256> Abs(InFile);
        llvm::sys::fs::make_absolute(Abs);
        llvm::sys::path::remove_dots(Abs, true);
        llvm::SmallString<256> Real;
        if (!llvm::sys::fs::real_path(Abs, Real))
            Abs = Real;
        llvm::StringRef S(Abs);
        if (hasPrefix(S, RepoPrefix))
            G.tus.insert("\"" +
                         jsonEscape(S.drop_front(RepoPrefix.size())) +
                         "\"");
        return std::make_unique<FactsConsumer>();
    }
};

void
emitArray(llvm::raw_ostream &OS, const char *Key,
          const std::set<std::string> &Items, bool Last = false)
{
    OS << "  \"" << Key << "\": [";
    bool First = true;
    for (const std::string &I : Items) {
        OS << (First ? "\n    " : ",\n    ") << I;
        First = false;
    }
    OS << (First ? "]" : "\n  ]") << (Last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, const char **argv)
{
    auto Options =
        tooling::CommonOptionsParser::create(argc, argv, Cat);
    if (!Options) {
        llvm::errs() << llvm::toString(Options.takeError()) << "\n";
        return 1;
    }

    llvm::SmallString<256> RepoReal;
    if (llvm::sys::fs::real_path(RepoOpt, RepoReal)) {
        llvm::errs() << "seesaw-extract: cannot resolve --repo '"
                     << RepoOpt << "'\n";
        return 1;
    }
    RepoPrefix = std::string(RepoReal) + "/";

    tooling::ClangTool Tool(Options->getCompilations(),
                            Options->getSourcePathList());
    if (Tool.run(
            tooling::newFrontendActionFactory<FactsAction>().get()))
        return 1;

    std::error_code EC;
    llvm::raw_fd_ostream FileOS(
        OutOpt == "-" ? "-" : llvm::StringRef(OutOpt), EC);
    if (EC) {
        llvm::errs() << "seesaw-extract: cannot open " << OutOpt
                     << ": " << EC.message() << "\n";
        return 1;
    }
    llvm::raw_ostream &OS = FileOS;

    OS << "{\n  \"schema\": 1,\n";
    emitArray(OS, "tus", G.tus);
    emitArray(OS, "config_fields", G.configFields);
    emitArray(OS, "key_fields", G.keyFields);
    emitArray(OS, "geometry_fields", G.geomFields);
    emitArray(OS, "config_reads", G.configReads);
    emitArray(OS, "includes", {});
    emitArray(OS, "stat_regs", G.statRegs);
    emitArray(OS, "stat_reads", G.statReads);
    emitArray(OS, "members", G.members);
    emitArray(OS, "mutations", G.mutations);
    emitArray(OS, "calls", G.calls);
    emitArray(OS, "overrides", G.overrides);
    emitArray(OS, "ignores", G.ignores, /*Last=*/true);
    OS << "}\n";
    return 0;
}
