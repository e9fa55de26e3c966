(** Recursive-descent parser for the SQL dialect printed by {!Sql_pp}.
    [parse (Sql_pp.to_string stmt)] round-trips for every statement the
    translators emit (property-tested). *)

open Sql_ast
open Sql_lexer

exception Parse_error of string

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> EOF

let peek2 st = match st.toks with _ :: (t, _) :: _ -> t | _ -> EOF

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let fail st msg =
  let offset = match st.toks with (_, pos) :: _ -> pos | [] -> 0 in
  raise
    (Parse_error
       (Printf.sprintf "%s (at %s, offset %d)" msg (token_to_string (peek st))
          offset))

let expect st t =
  if peek st = t then advance st
  else fail st (Printf.sprintf "expected %s" (token_to_string t))

let expect_kw st kw =
  match peek st with
  | KW k when k = kw -> advance st
  | _ -> fail st ("expected " ^ kw)

let accept_kw st kw =
  match peek st with
  | KW k when k = kw ->
    advance st;
    true
  | _ -> false

let ident st =
  match peek st with
  | IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let value_literal st =
  match peek st with
  | INT i -> advance st; Some (Value.Int i)
  | REALLIT r -> advance st; Some (Value.Real r)
  | STRING s -> advance st; Some (Value.Str s)
  | LIDLIT i -> advance st; Some (Value.Lid i)
  | KW "NULL" -> advance st; Some Value.Null
  | KW "TRUE" -> advance st; Some (Value.Bool true)
  | KW "FALSE" -> advance st; Some (Value.Bool false)
  | MINUS ->
    (match peek2 st with
     | INT i -> advance st; advance st; Some (Value.Int (-i))
     | REALLIT r -> advance st; advance st; Some (Value.Real (-.r))
     | _ -> None)
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept_kw st "OR" do
    let rhs = parse_and st in
    lhs := Binop (Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while accept_kw st "AND" do
    let rhs = parse_not st in
    lhs := Binop (And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  if accept_kw st "NOT" then Not (parse_not st) else parse_comparison st

and parse_comparison st =
  let lhs = parse_additive st in
  match peek st with
  | EQ -> advance st; Binop (Eq, lhs, parse_additive st)
  | NEQ -> advance st; Binop (Neq, lhs, parse_additive st)
  | LT -> advance st; Binop (Lt, lhs, parse_additive st)
  | LEQ -> advance st; Binop (Leq, lhs, parse_additive st)
  | GT -> advance st; Binop (Gt, lhs, parse_additive st)
  | GEQ -> advance st; Binop (Geq, lhs, parse_additive st)
  | KW "IS" ->
    advance st;
    if accept_kw st "NOT" then begin
      expect_kw st "NULL";
      Is_not_null lhs
    end
    else begin
      expect_kw st "NULL";
      Is_null lhs
    end
  | KW "IN" ->
    advance st;
    expect st LPAREN;
    let vs = ref [] in
    let rec loop () =
      (match value_literal st with
       | Some v -> vs := v :: !vs
       | None -> fail st "expected literal in IN list");
      if peek st = COMMA then begin
        advance st;
        loop ()
      end
    in
    loop ();
    expect st RPAREN;
    In_list (lhs, List.rev !vs)
  | KW "LIKE" ->
    advance st;
    (match peek st with
     | STRING s ->
       advance st;
       Like (lhs, s)
     | _ -> fail st "expected pattern string after LIKE")
  | _ -> lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec loop () =
    match peek st with
    | PLUS ->
      advance st;
      lhs := Binop (Add, !lhs, parse_multiplicative st);
      loop ()
    | MINUS ->
      advance st;
      lhs := Binop (Sub, !lhs, parse_multiplicative st);
      loop ()
    | CONCAT ->
      advance st;
      lhs := Binop (Concat, !lhs, parse_multiplicative st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_primary st) in
  let rec loop () =
    match peek st with
    | STAR ->
      advance st;
      lhs := Binop (Mul, !lhs, parse_primary st);
      loop ()
    | SLASH ->
      advance st;
      lhs := Binop (Div, !lhs, parse_primary st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_primary st =
  match value_literal st with
  | Some v -> Const v
  | None ->
    (match peek st with
     | LPAREN ->
       advance st;
       let e = parse_expr st in
       expect st RPAREN;
       e
     | KW "CASE" ->
       advance st;
       let whens = ref [] in
       while accept_kw st "WHEN" do
         let c = parse_expr st in
         expect_kw st "THEN";
         let v = parse_expr st in
         whens := (c, v) :: !whens
       done;
       let els = if accept_kw st "ELSE" then Some (parse_expr st) else None in
       expect_kw st "END";
       Case (List.rev !whens, els)
     | KW (("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") as fn) ->
       advance st;
       expect st LPAREN;
       let distinct = accept_kw st "DISTINCT" in
       let arg =
         if peek st = STAR then begin
           advance st;
           None
         end
         else Some (parse_expr st)
       in
       expect st RPAREN;
       let fn =
         match fn with
         | "COUNT" -> A_count
         | "SUM" -> A_sum
         | "AVG" -> A_avg
         | "MIN" -> A_min
         | _ -> A_max
       in
       Agg (fn, arg, distinct)
     | KW "COALESCE" ->
       advance st;
       expect st LPAREN;
       let args = ref [ parse_expr st ] in
       while peek st = COMMA do
         advance st;
         args := parse_expr st :: !args
       done;
       expect st RPAREN;
       Coalesce (List.rev !args)
     | IDENT q when peek2 st = DOT ->
       advance st;
       advance st;
       let n = ident st in
       Col (Some q, n)
     | IDENT n ->
       advance st;
       Col (None, n)
     | _ -> fail st "expected expression")

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let rec parse_query st : query =
  let first = parse_query_atom st in
  let parts = ref [ first ] in
  let all = ref true in
  let saw_union = ref false in
  let rec loop () =
    if accept_kw st "UNION" then begin
      let this_all = accept_kw st "ALL" in
      if !saw_union && this_all <> !all then
        raise (Parse_error "mixed UNION and UNION ALL not supported");
      all := this_all;
      saw_union := true;
      parts := parse_query_atom st :: !parts;
      loop ()
    end
  in
  loop ();
  match List.rev !parts with
  | [ single ] -> single
  | many -> Union { all = !all; parts = many }

and parse_query_atom st : query =
  match peek st with
  | LPAREN ->
    advance st;
    let q = parse_query st in
    expect st RPAREN;
    q
  | KW "SELECT" -> Select (parse_select st)
  | _ -> fail st "expected SELECT or ("

and parse_select st : select =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let items =
    if peek st = STAR then begin
      advance st;
      []
    end
    else begin
      let parse_item () =
        let expr = parse_expr st in
        let alias = if accept_kw st "AS" then Some (ident st) else None in
        { expr; alias }
      in
      let items = ref [ parse_item () ] in
      while peek st = COMMA do
        advance st;
        items := parse_item () :: !items
      done;
      List.rev !items
    end
  in
  let from = if accept_kw st "FROM" then Some (parse_from_item st) else None in
  let joins = ref [] in
  let rec join_loop () =
    match peek st with
    | KW "JOIN" ->
      advance st;
      joins := parse_join_tail st Inner :: !joins;
      join_loop ()
    | KW "INNER" ->
      advance st;
      expect_kw st "JOIN";
      joins := parse_join_tail st Inner :: !joins;
      join_loop ()
    | KW "LEFT" ->
      advance st;
      ignore (accept_kw st "OUTER");
      expect_kw st "JOIN";
      joins := parse_join_tail st Left_outer :: !joins;
      join_loop ()
    | _ -> ()
  in
  join_loop ();
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let keys = ref [ parse_expr st ] in
      while peek st = COMMA do
        advance st;
        keys := parse_expr st :: !keys
      done;
      List.rev !keys
    end
    else []
  in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let parse_ob () =
        let sort_expr = parse_expr st in
        let asc =
          if accept_kw st "DESC" then false
          else begin
            ignore (accept_kw st "ASC");
            true
          end
        in
        { sort_expr; asc }
      in
      let obs = ref [ parse_ob () ] in
      while peek st = COMMA do
        advance st;
        obs := parse_ob () :: !obs
      done;
      List.rev !obs
    end
    else []
  in
  let limit =
    if accept_kw st "LIMIT" then
      match peek st with
      | INT n ->
        advance st;
        Some n
      | _ -> fail st "expected integer after LIMIT"
    else None
  in
  let offset =
    if accept_kw st "OFFSET" then
      match peek st with
      | INT n ->
        advance st;
        Some n
      | _ -> fail st "expected integer after OFFSET"
    else None
  in
  { distinct; items; from; joins = List.rev !joins; where; group_by; order_by;
    limit; offset }

and parse_join_tail st kind : join =
  let item = parse_from_item st in
  expect_kw st "ON";
  let on =
    if accept_kw st "TRUE" then None
    else Some (parse_expr st)
  in
  { kind; item; on }

and parse_from_item st : from_item =
  match peek st with
  | KW "LATERAL" ->
    advance st;
    expect st LPAREN;
    expect_kw st "VALUES";
    let parse_row () =
      expect st LPAREN;
      let es = ref [ parse_expr st ] in
      while peek st = COMMA do
        advance st;
        es := parse_expr st :: !es
      done;
      expect st RPAREN;
      List.rev !es
    in
    let rows = ref [ parse_row () ] in
    while peek st = COMMA do
      advance st;
      rows := parse_row () :: !rows
    done;
    expect st RPAREN;
    expect_kw st "AS";
    let alias = ident st in
    expect st LPAREN;
    let cols = ref [ ident st ] in
    while peek st = COMMA do
      advance st;
      cols := ident st :: !cols
    done;
    expect st RPAREN;
    From_values { rows = List.rev !rows; alias; cols = List.rev !cols }
  | LPAREN ->
    advance st;
    let q = parse_query st in
    expect st RPAREN;
    expect_kw st "AS";
    let alias = ident st in
    From_subquery { query = q; alias }
  | IDENT table ->
    advance st;
    let alias =
      if accept_kw st "AS" then ident st
      else
        match peek st with
        | IDENT a when peek2 st <> DOT -> advance st; a
        | _ -> table
    in
    From_table { table; alias }
  | _ -> fail st "expected FROM item"

(** Parse a full statement (with optional WITH clause). *)
let parse (src : string) : stmt =
  let st = { toks = tokenize src } in
  let ctes =
    if accept_kw st "WITH" then begin
      let parse_cte () =
        let name = ident st in
        expect_kw st "AS";
        expect st LPAREN;
        let q = parse_query st in
        expect st RPAREN;
        (name, q)
      in
      let ctes = ref [ parse_cte () ] in
      while peek st = COMMA do
        advance st;
        ctes := parse_cte () :: !ctes
      done;
      List.rev !ctes
    end
    else []
  in
  let body = parse_query st in
  if peek st <> EOF then fail st "trailing input";
  { ctes; body }
