(* Typed allocation audit for the designated hot-path modules
   (DESIGN.md section 7.3).  The syntactic tier can only ban names it
   recognizes (List.sort/List.map); this pass reads the typedtree and
   flags the allocating *constructs* themselves:

   - closures built per call (Texp_function outside a binding's static
     currying chain, including named local functions);
   - tuple, record, array and non-constant constructor allocations
     (polymorphic variants with payloads included);
   - partial applications — an application with an omitted argument or
     an arrow result allocates the closure for the remaining arguments,
     which is also how [f @@ x] chains that under-apply show up;
   - [ref] cells;
   - floats passed where the callee's *declared* parameter is a type
     variable: the value is boxed at that call (declared schemes come
     from the value description carried by [Texp_ident], so this works
     on cmt input too).  The compiler-specialized primitives are
     exempt: structural comparisons ([=] [<] [>=] ... [compare]) and
     float-array access compile to unboxed code when the operand type
     is known at the call, so only genuinely polymorphic callees
     ([min], [Option.value], a [('a -> ...)] parameter) box.

   What is deliberately *not* flagged:

   - module-initialization code: the right-hand side of a toplevel
     binding runs once, so its tables/records/closures are free; only
     code inside a function body is per-call.  The optional-argument
     elaboration lets the typechecker inserts ([@#default]) are peeled
     as part of the binding's currying chain.
   - [Some _]: option returns are the repo's pervasive absence idiom
     and boxing them is unavoidable in idiomatic OCaml; the walk-level
     APIs return options by contract.
   - exception constructor payloads: raise paths are cold.
   - string/float literals: static data.

   Escapes: [[@alloc_ok]] on an expression or a let-binding accepts the
   whole subtree (use it for per-operation setup that is provably not
   per-hop), and the typed allowlist accepts (rule, path-suffix) pairs
   like the syntactic one.  Submodules are checked like top-level code. *)

open Typedtree

let rule = "typed-alloc"
let attr = "alloc_ok"

let is_res_path p (cd : Types.constructor_description) =
  match Types.get_desc cd.cstr_res with
  | Types.Tconstr (q, _, _) -> Path.same p q
  | _ -> false

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* Callees the native compiler monomorphizes at the call site when the
   operand type is statically float: no boxing happens even though the
   declared scheme is ['a -> ...]. *)
let specialized_primitive = function
  | "Stdlib", ("=" | "<>" | "==" | "!=" | "<" | ">" | "<=" | ">=" | "compare")
    ->
      true
  | "Array", ("get" | "set" | "unsafe_get" | "unsafe_set") -> true
  | _ -> false

let check ~file structure =
  let violations = ref [] in
  let add ~loc message =
    violations := Cmt_load.violation ~file ~loc rule message :: !violations
  in
  let suppressed attrs = Cmt_load.has_attr attr attrs in
  (* [dyn] walks code that runs per call and flags allocations; [peel]
     descends a binding's currying chain (static closure, allocated at
     module init) into the per-call body; [static] walks
     module-initialization values, flagging nothing but diverting any
     function body it meets back through [peel]. *)
  let rec dyn e =
    if suppressed e.exp_attributes then ()
    else
      match e.exp_desc with
      | Texp_function _ ->
          add ~loc:e.exp_loc
            "closure allocated per call; lift it to a top-level function \
             or annotate [@alloc_ok]";
          peel e
      | Texp_let (_, vbs, body) ->
          List.iter
            (fun vb -> if not (suppressed vb.vb_attributes) then dyn vb.vb_expr)
            vbs;
          dyn body
      | Texp_tuple _ ->
          add ~loc:e.exp_loc "tuple allocation on a hot path";
          dyn_children e
      | Texp_record _ ->
          add ~loc:e.exp_loc "record allocation on a hot path";
          dyn_children e
      | Texp_array (_ :: _) ->
          add ~loc:e.exp_loc "array allocation on a hot path";
          dyn_children e
      | Texp_variant (_, Some _) ->
          add ~loc:e.exp_loc
            "polymorphic variant with payload allocates on a hot path";
          dyn_children e
      | Texp_construct (_, cd, _ :: _)
        when not (is_res_path Predef.path_option cd)
             && not (is_res_path Predef.path_exn cd) ->
          add ~loc:e.exp_loc
            (if is_res_path Predef.path_list cd then
               "list cons allocation on a hot path"
             else
               Printf.sprintf "constructor %s allocates on a hot path"
                 cd.cstr_name);
          dyn_children e
      | Texp_lazy _ ->
          add ~loc:e.exp_loc "lazy block allocation on a hot path";
          dyn_children e
      | Texp_apply (fn, args) ->
          let omitted_required =
            List.exists
              (function
                | (Asttypes.Nolabel | Asttypes.Labelled _), None -> true
                | _ -> false)
              args
          in
          if omitted_required || is_arrow e.exp_type then
            add ~loc:e.exp_loc
              "partial application allocates a closure for the remaining \
               arguments";
          (match fn.exp_desc with
          | Texp_ident (p, _, vd) ->
              let key = Cmt_load.path_key ~current:"" p in
              (match key with
              | "Stdlib", "ref" ->
                  add ~loc:e.exp_loc "ref cell allocation on a hot path"
              | _ -> ());
              if not (specialized_primitive key) then
                boxed_float_args ~loc:e.exp_loc vd.Types.val_type args
          | _ -> dyn fn);
          List.iter (function _, Some a -> dyn a | _, None -> ()) args
      | _ -> dyn_children e
  and dyn_children e =
    let it = { Tast_iterator.default_iterator with expr = (fun _ e -> dyn e) } in
    Tast_iterator.default_iterator.expr it e
  and boxed_float_args ~loc scheme args =
    (* pair declared formals with supplied args in order; a float meeting
       a Tvar formal gets boxed at the call *)
    let rec go ty args =
      match (Types.get_desc ty, args) with
      | _, [] -> ()
      | Types.Tarrow (_, formal, rest, _), (_, arg) :: args ->
          (match arg with
          | Some a
            when is_float a.exp_type
                 && (match Types.get_desc formal with
                    | Types.Tvar _ -> true
                    | _ -> false) ->
              add ~loc
                "float boxed at a polymorphic argument position; use a \
                 monomorphic helper"
          | _ -> ());
          go rest args
      | Types.Tpoly (t, _), args -> go t args
      | _ -> ()
    in
    go scheme args
  and peel e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter dyn c.c_guard;
            peel c.c_rhs)
          cases
    | Texp_let (_, vbs, body) when Cmt_load.has_attr "#default" e.exp_attributes
      ->
        (* optional-argument elaboration: walk the default expressions
           (a non-constant default does allocate per call), keep peeling *)
        List.iter (fun vb -> dyn vb.vb_expr) vbs;
        peel body
    | _ -> dyn e
  in
  let static e =
    (* module-init data allocates once: flag nothing, but any function
       body nested inside it still runs per call *)
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
            match e.exp_desc with
            | Texp_function _ ->
                if not (suppressed e.exp_attributes) then peel e
            | _ -> Tast_iterator.default_iterator.expr sub e);
      }
    in
    it.expr it e
  in
  let rec structure_item (item : structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            if not (suppressed vb.vb_attributes) then
              match vb.vb_expr.exp_desc with
              | Texp_function _ -> peel vb.vb_expr
              | _ -> static vb.vb_expr)
          vbs
    | Tstr_eval (e, attrs) -> if not (suppressed attrs) then static e
    | Tstr_module mb -> module_binding mb
    | Tstr_recmodule mbs -> List.iter module_binding mbs
    | _ -> ()
  and module_binding (mb : module_binding) = module_expr mb.mb_expr
  and module_expr me =
    match me.mod_desc with
    | Tmod_structure str -> List.iter structure_item str.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr me
    | Tmod_functor (_, me) -> module_expr me
    | _ -> ()
  in
  List.iter structure_item structure.str_items;
  List.rev !violations
