(* Tests for the mini relational engine (essa_relalg). *)

open Essa_relalg

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let v_int n = Value.Int n
let v_str s = Value.String s
let v_float f = Value.Float f

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_arith () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (v_int 2) (v_int 3)) (v_int 5));
  Alcotest.(check bool) "promotion" true
    (Value.equal (Value.add (v_int 2) (v_float 0.5)) (v_float 2.5));
  Alcotest.(check bool) "int div is float" true
    (Value.equal (Value.div (v_int 7) (v_int 2)) (v_float 3.5));
  Alcotest.(check bool) "neg" true (Value.equal (Value.neg (v_int 4)) (v_int (-4)))

let test_value_null_absorbs () =
  Alcotest.(check bool) "null + x" true (Value.is_null (Value.add Value.Null (v_int 1)));
  Alcotest.(check bool) "x * null" true (Value.is_null (Value.mul (v_int 1) Value.Null));
  Alcotest.(check bool) "null < x is false" true
    (Value.equal (Value.lt Value.Null (v_int 1)) (Value.Bool false));
  Alcotest.(check bool) "null = null is false" true
    (Value.equal (Value.eq Value.Null Value.Null) (Value.Bool false))

let test_value_type_errors () =
  let raises f = match f () with
    | exception Value.Type_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "string + int" true (raises (fun () -> Value.add (v_str "a") (v_int 1)));
  Alcotest.(check bool) "div by zero" true (raises (fun () -> Value.div (v_int 1) (v_int 0)));
  Alcotest.(check bool) "compare str/int" true (raises (fun () -> Value.lt (v_str "a") (v_int 1)));
  Alcotest.(check bool) "to_bool of int" true (raises (fun () -> Value.to_bool (v_int 1)));
  Alcotest.(check bool) "to_int of float" true (raises (fun () -> Value.to_int (v_float 1.5)))

let test_value_comparisons () =
  Alcotest.(check bool) "2 < 3" true (Value.to_bool (Value.lt (v_int 2) (v_int 3)));
  Alcotest.(check bool) "cross-type eq" true (Value.to_bool (Value.eq (v_int 2) (v_float 2.0)));
  Alcotest.(check bool) "string order" true (Value.to_bool (Value.lt (v_str "a") (v_str "b")));
  Alcotest.(check bool) "ge" true (Value.to_bool (Value.ge (v_int 3) (v_int 3)))

let test_value_logic () =
  let t = Value.Bool true and f = Value.Bool false in
  Alcotest.(check bool) "and" false (Value.to_bool (Value.logical_and t f));
  Alcotest.(check bool) "or" true (Value.to_bool (Value.logical_or f t));
  Alcotest.(check bool) "not" true (Value.to_bool (Value.logical_not f));
  (* NULL coerces to false in boolean position *)
  Alcotest.(check bool) "null as false" false (Value.to_bool Value.Null)

let test_value_total_order () =
  let l = [ v_str "z"; Value.Null; v_int 5; Value.Bool true; v_float 2.5 ] in
  let sorted = List.sort Value.compare_total l in
  Alcotest.(check (list string)) "null < bool < num < string"
    [ "NULL"; "true"; "2.5"; "5"; "\"z\"" ]
    (List.map Value.to_display sorted)

(* ------------------------------------------------------------------ *)
(* Schema *)

let kw_schema =
  Schema.make
    [
      { Schema.name = "text"; ty = Value.T_string };
      { Schema.name = "bid"; ty = Value.T_int };
      { Schema.name = "relevance"; ty = Value.T_float };
    ]

let test_schema_basics () =
  Alcotest.(check int) "arity" 3 (Schema.arity kw_schema);
  Alcotest.(check int) "index" 1 (Schema.index_of kw_schema "bid");
  Alcotest.(check bool) "mem" true (Schema.mem kw_schema "text");
  Alcotest.(check bool) "not mem" false (Schema.mem kw_schema "nope")

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore
        (Schema.make
           [ { Schema.name = "x"; ty = Value.T_int }; { Schema.name = "x"; ty = Value.T_int } ]))

let test_schema_unknown_column () =
  Alcotest.(check bool) "raises" true
    (match Schema.index_of kw_schema "ghost" with
    | exception Schema.Unknown_column "ghost" -> true
    | _ -> false)

let test_schema_check_row () =
  Schema.check_row kw_schema [| v_str "boot"; v_int 5; v_float 0.8 |];
  Schema.check_row kw_schema [| Value.Null; Value.Null; Value.Null |];
  Alcotest.(check bool) "bad type" true
    (match Schema.check_row kw_schema [| v_str "boot"; v_str "oops"; v_float 0.8 |] with
    | exception Value.Type_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad arity" true
    (match Schema.check_row kw_schema [| v_str "boot" |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Table *)

let make_kw_table () =
  let t = Table.create ~name:"Keywords" kw_schema in
  Table.insert t [| v_str "boot"; v_int 4; v_float 0.8 |];
  Table.insert t [| v_str "shoe"; v_int 8; v_float 0.2 |];
  Table.insert t [| v_str "sock"; v_int 1; v_float 0.0 |];
  t

let test_table_insert_and_scan () =
  let t = make_kw_table () in
  Alcotest.(check int) "cardinality" 3 (Table.cardinality t);
  let texts =
    List.map (fun row -> Value.to_string_exn (Table.get_value t row "text")) (Table.to_rows t)
  in
  Alcotest.(check (list string)) "insertion order" [ "boot"; "shoe"; "sock" ] texts

let test_table_insert_copies () =
  let t = Table.create ~name:"T" kw_schema in
  let row = [| v_str "boot"; v_int 4; v_float 0.8 |] in
  Table.insert t row;
  row.(1) <- v_int 999;
  let stored = List.hd (Table.to_rows t) in
  Alcotest.(check bool) "buffer reuse safe" true (Value.equal stored.(1) (v_int 4))

let test_table_update () =
  let t = make_kw_table () in
  let changed =
    Table.update t
      ~where:(fun row -> Value.to_bool (Value.gt (Table.get_value t row "bid") (v_int 2)))
      ~set:(fun row -> [ ("bid", Value.add (Table.get_value t row "bid") (v_int 1)) ])
  in
  Alcotest.(check int) "rows changed" 2 changed;
  let bids = List.map (fun r -> Value.to_int (Table.get_value t r "bid")) (Table.to_rows t) in
  Alcotest.(check (list int)) "updated" [ 5; 9; 1 ] bids

let test_table_update_snapshot_semantics () =
  (* SET expressions are computed against the pre-update row even when the
     predicate depends on a column the update changes. *)
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.T_int } ] in
  let t = Table.create ~name:"T" schema in
  for i = 1 to 5 do
    Table.insert t [| v_int i |]
  done;
  ignore
    (Table.update t
       ~where:(fun row -> Value.to_int row.(0) <= 3)
       ~set:(fun _ -> [ ("x", v_int 10) ]));
  let xs = List.map (fun r -> Value.to_int r.(0)) (Table.to_rows t) in
  Alcotest.(check (list int)) "updated consistently" [ 10; 10; 10; 4; 5 ] xs

let test_table_delete () =
  let t = make_kw_table () in
  let removed =
    Table.delete t ~where:(fun row ->
        Value.to_bool (Value.le (Table.get_value t row "relevance") (v_float 0.2)))
  in
  Alcotest.(check int) "removed" 2 removed;
  Alcotest.(check int) "left" 1 (Table.cardinality t)

let test_table_update_bad_type_rejected () =
  let t = make_kw_table () in
  Alcotest.(check bool) "type checked" true
    (match
       Table.update t ~where:(fun _ -> true) ~set:(fun _ -> [ ("bid", v_str "x") ])
     with
    | exception Value.Type_error _ -> true
    | _ -> false)

let test_table_find_first () =
  let t = make_kw_table () in
  (match Table.find_first t (fun row -> Value.equal (Table.get_value t row "text") (v_str "shoe")) with
  | Some row -> Alcotest.(check int) "found shoe" 8 (Value.to_int (Table.get_value t row "bid"))
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "absent" true
    (Table.find_first t (fun _ -> false) = None)

let test_table_clear () =
  let t = make_kw_table () in
  Table.clear t;
  Alcotest.(check int) "empty" 0 (Table.cardinality t)

(* ------------------------------------------------------------------ *)
(* Expr *)

let ctx_of_table ?row t : Expr.ctx =
  {
    Expr.lookup_table = (fun name -> if name = Table.name t then t else raise (Database.Unknown_table name));
    lookup_var = (fun _ -> None);
    row = Option.map (fun r -> (Table.schema t, r)) row;
    outer = None;
  }

let test_expr_aggregates () =
  let t = make_kw_table () in
  let ctx = ctx_of_table t in
  let agg a over where =
    Expr.eval ctx (Expr.Agg { agg = a; over; table = "Keywords"; where })
  in
  Alcotest.(check bool) "sum" true (Value.equal (agg Expr.Sum (Expr.Col "bid") None) (v_int 13));
  Alcotest.(check bool) "count" true (Value.equal (agg Expr.Count (Expr.Col "bid") None) (v_int 3));
  Alcotest.(check bool) "max" true (Value.equal (agg Expr.Max (Expr.Col "bid") None) (v_int 8));
  Alcotest.(check bool) "min" true (Value.equal (agg Expr.Min (Expr.Col "bid") None) (v_int 1));
  Alcotest.(check bool) "avg" true
    (Value.equal (agg Expr.Avg (Expr.Col "bid") None) (v_float (13.0 /. 3.0)))

let test_expr_agg_empty () =
  let t = make_kw_table () in
  let ctx = ctx_of_table t in
  let nothing = Some Expr.(Bin (Gt, Col "bid", int 100)) in
  let agg a =
    Expr.eval ctx (Expr.Agg { agg = a; over = Expr.Col "bid"; table = "Keywords"; where = nothing })
  in
  (* SUM over empty = 0 by design (matches the paper's Fig. 6); MIN/MAX/AVG are NULL. *)
  Alcotest.(check bool) "sum empty = 0" true (Value.equal (agg Expr.Sum) (v_int 0));
  Alcotest.(check bool) "count empty = 0" true (Value.equal (agg Expr.Count) (v_int 0));
  Alcotest.(check bool) "max empty" true (Value.is_null (agg Expr.Max));
  Alcotest.(check bool) "avg empty" true (Value.is_null (agg Expr.Avg))

let test_expr_agg_filtered () =
  let t = make_kw_table () in
  let ctx = ctx_of_table t in
  let relevant = Some Expr.(Bin (Gt, Col "relevance", float 0.1)) in
  Alcotest.(check bool) "filtered sum" true
    (Value.equal
       (Expr.eval ctx (Expr.Agg { agg = Expr.Sum; over = Expr.Col "bid"; table = "Keywords"; where = relevant }))
       (v_int 12))

let test_expr_vars_and_short_circuit () =
  let t = make_kw_table () in
  let ctx =
    { (ctx_of_table t) with Expr.lookup_var = (fun v -> if v = "x" then Some (v_int 5) else None) }
  in
  Alcotest.(check bool) "var" true (Value.equal (Expr.eval ctx (Expr.Var "x")) (v_int 5));
  Alcotest.(check bool) "unknown var" true
    (match Expr.eval ctx (Expr.Var "ghost") with
    | exception Expr.Unknown_variable "ghost" -> true
    | _ -> false);
  (* The right side would divide by zero — short-circuit must skip it. *)
  let guarded = Expr.(Bin (And, bool false, Bin (Eq, Bin (Div, int 1, int 0), int 1))) in
  Alcotest.(check bool) "and short-circuits" false (Expr.eval_bool ctx guarded);
  let guarded_or = Expr.(Bin (Or, bool true, Bin (Eq, Bin (Div, int 1, int 0), int 1))) in
  Alcotest.(check bool) "or short-circuits" true (Expr.eval_bool ctx guarded_or)

let test_expr_no_row_scope () =
  let t = make_kw_table () in
  Alcotest.(check bool) "col without row" true
    (match Expr.eval (ctx_of_table t) (Expr.Col "bid") with
    | exception Expr.No_row_scope _ -> true
    | _ -> false)

let test_expr_correlated_subquery () =
  (* SELECT SUM(bid) FROM Keywords WHERE text = outer.text, with the outer
     row being the boot row: correlation reaches the enclosing scope. *)
  let t = make_kw_table () in
  let row = [| v_str "boot"; v_int 0; v_float 0.0 |] in
  let ctx = ctx_of_table ~row t in
  let e =
    Expr.Agg
      {
        agg = Expr.Sum;
        over = Expr.Col "bid";
        table = "Keywords";
        where = Some Expr.(Bin (Eq, Col "text", Outer "text"));
      }
  in
  Alcotest.(check bool) "correlated" true (Value.equal (Expr.eval ctx e) (v_int 4))

let test_expr_pp_renders () =
  let e =
    Expr.(Bin (And, Bin (Gt, Col "relevance", float 0.7), Bin (Lt, Col "bid", Col "maxbid")))
  in
  Alcotest.(check string) "sql flavour" "((relevance > 0.7) AND (bid < maxbid))"
    (Format.asprintf "%a" Expr.pp e)

(* ------------------------------------------------------------------ *)
(* Database + Stmt *)

let make_db () =
  let db = Database.create () in
  let kw = Database.create_table db ~name:"Keywords" kw_schema in
  Table.insert kw [| v_str "boot"; v_int 4; v_float 0.8 |];
  Table.insert kw [| v_str "shoe"; v_int 8; v_float 0.2 |];
  db

let test_db_stmt_update () =
  let db = make_db () in
  Database.exec db
    (Stmt.Update
       {
         table = "Keywords";
         set = [ ("bid", Expr.(Bin (Add, Col "bid", int 1))) ];
         where = Some Expr.(Bin (Gt, Col "relevance", float 0.5));
       });
  let kw = Database.table db "Keywords" in
  let bids = List.map (fun r -> Value.to_int (Table.get_value kw r "bid")) (Table.to_rows kw) in
  Alcotest.(check (list int)) "boot bumped" [ 5; 8 ] bids

let test_db_stmt_if_elseif () =
  let db = make_db () in
  Database.set_var db "mode" (v_int 2);
  let assign n = Stmt.Set_var ("result", Expr.int n) in
  Database.exec db
    (Stmt.If
       ( [
           (Expr.(Bin (Eq, Var "mode", int 1)), [ assign 100 ]);
           (Expr.(Bin (Eq, Var "mode", int 2)), [ assign 200 ]);
         ],
         [ assign 300 ] ));
  Alcotest.(check bool) "elseif branch" true (Value.equal (Database.var db "result") (v_int 200))

let test_db_stmt_else () =
  let db = make_db () in
  Database.set_var db "mode" (v_int 9);
  Database.exec db
    (Stmt.If
       ( [ (Expr.(Bin (Eq, Var "mode", int 1)), [ Stmt.Set_var ("r", Expr.int 1) ]) ],
         [ Stmt.Set_var ("r", Expr.int 2) ] ));
  Alcotest.(check bool) "else branch" true (Value.equal (Database.var db "r") (v_int 2))

let test_db_insert_delete () =
  let db = make_db () in
  Database.exec db
    (Stmt.Insert { table = "Keywords"; values = Expr.[ str "hat"; int 3; float 0.5 ] });
  Alcotest.(check int) "inserted" 3 (Table.cardinality (Database.table db "Keywords"));
  Database.exec db
    (Stmt.Delete { table = "Keywords"; where = Some Expr.(Bin (Lt, Col "bid", int 4)) });
  Alcotest.(check int) "deleted" 2 (Table.cardinality (Database.table db "Keywords"))

let test_db_trigger_fires () =
  let db = make_db () in
  ignore
    (Database.create_table db ~name:"Query"
       (Schema.make [ { Schema.name = "q"; ty = Value.T_string } ]));
  Database.set_var db "count" (v_int 0);
  Database.create_trigger db ~name:"counter" ~on_insert:"Query"
    [ Stmt.Set_var ("count", Expr.(Bin (Add, Var "count", int 1))) ];
  Database.insert db "Query" [| v_str "a" |];
  Database.insert db "Query" [| v_str "b" |];
  Alcotest.(check bool) "fired twice" true (Value.equal (Database.var db "count") (v_int 2))

let test_db_trigger_sees_inserted_row () =
  let db = Database.create () in
  ignore
    (Database.create_table db ~name:"Query"
       (Schema.make [ { Schema.name = "q"; ty = Value.T_string } ]));
  Database.create_trigger db ~name:"capture" ~on_insert:"Query"
    [ Stmt.Set_var ("last", Expr.Col "q") ];
  Database.insert db "Query" [| v_str "boots please" |];
  Alcotest.(check bool) "row bound" true
    (Value.equal (Database.var db "last") (v_str "boots please"))

let test_db_trigger_depth_limit () =
  (* A self-inserting trigger must be stopped by the recursion guard. *)
  let db = Database.create ~max_trigger_depth:4 () in
  ignore
    (Database.create_table db ~name:"T"
       (Schema.make [ { Schema.name = "x"; ty = Value.T_int } ]));
  Database.create_trigger db ~name:"loop" ~on_insert:"T"
    [ Stmt.Insert { table = "T"; values = [ Expr.(Bin (Add, Col "x", int 1)) ] } ];
  Alcotest.(check bool) "depth guard" true
    (match Database.insert db "T" [| v_int 0 |] with
    | exception Database.Trigger_depth_exceeded _ -> true
    | _ -> false)

let test_db_query_order_by () =
  let db = make_db () in
  let rows =
    Database.query db ~table:"Keywords" ~order_by:("bid", `Desc) ()
  in
  let bids = List.map (fun r -> Value.to_int r.(1)) rows in
  Alcotest.(check (list int)) "sorted desc" [ 8; 4 ] bids

let test_db_query_order_asc () =
  let db = make_db () in
  let rows = Database.query db ~table:"Keywords" ~order_by:("bid", `Asc) () in
  Alcotest.(check (list int)) "ascending" [ 4; 8 ]
    (List.map (fun r -> Value.to_int r.(1)) rows)

let test_expr_nested_aggregate () =
  (* COUNT of rows whose bid is below the table's AVG — an aggregate whose
     WHERE contains another aggregate. *)
  let db = make_db () in
  let below_avg =
    Expr.Agg
      {
        agg = Expr.Count;
        over = Expr.int 1;
        table = "Keywords";
        where =
          Some
            Expr.(
              Bin
                ( Lt,
                  Col "bid",
                  Agg { agg = Avg; over = Col "bid"; table = "Keywords"; where = None } ));
      }
  in
  Alcotest.(check bool) "one keyword below average" true
    (Value.equal (Database.eval db below_avg) (v_int 1))

let test_db_query_where () =
  let db = make_db () in
  let rows =
    Database.query db ~table:"Keywords" ~where:Expr.(Bin (Gt, Col "bid", int 5)) ()
  in
  Alcotest.(check int) "filtered" 1 (List.length rows)

let test_db_unknown_table () =
  let db = make_db () in
  Alcotest.(check bool) "raises" true
    (match Database.table db "Nope" with
    | exception Database.Unknown_table "Nope" -> true
    | _ -> false)

let test_db_duplicate_table () =
  let db = make_db () in
  Alcotest.(check bool) "raises" true
    (match Database.create_table db ~name:"Keywords" kw_schema with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_db_triggers_fire_in_registration_order () =
  let db = Database.create () in
  ignore
    (Database.create_table db ~name:"Query"
       (Schema.make [ { Schema.name = "q"; ty = Value.T_int } ]));
  Database.set_var db "log" (v_int 0);
  (* Each trigger appends a digit: final value records the firing order. *)
  Database.create_trigger db ~name:"first" ~on_insert:"Query"
    [ Stmt.Set_var ("log", Expr.(Bin (Add, Bin (Mul, Var "log", int 10), int 1))) ];
  Database.create_trigger db ~name:"second" ~on_insert:"Query"
    [ Stmt.Set_var ("log", Expr.(Bin (Add, Bin (Mul, Var "log", int 10), int 2))) ];
  Database.insert db "Query" [| v_int 0 |];
  Alcotest.(check bool) "1 then 2" true (Value.equal (Database.var db "log") (v_int 12))

let test_db_duplicate_trigger_rejected () =
  let db = Database.create () in
  ignore
    (Database.create_table db ~name:"T"
       (Schema.make [ { Schema.name = "x"; ty = Value.T_int } ]));
  Database.create_trigger db ~name:"t" ~on_insert:"T" [];
  Alcotest.(check bool) "duplicate" true
    (match Database.create_trigger db ~name:"t" ~on_insert:"T" [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check (list string)) "names" [ "t" ] (Database.trigger_names db)

let test_db_trigger_on_unknown_table () =
  let db = Database.create () in
  Alcotest.(check bool) "unknown subject" true
    (match Database.create_trigger db ~name:"t" ~on_insert:"Ghost" [] with
    | exception Database.Unknown_table "Ghost" -> true
    | _ -> false)

let test_db_eval_standalone () =
  let db = make_db () in
  let v =
    Database.eval db
      (Expr.Agg { agg = Expr.Max; over = Expr.Col "bid"; table = "Keywords"; where = None })
  in
  Alcotest.(check bool) "standalone aggregate" true (Value.equal v (v_int 8))

let test_stmt_pp_renders_sql () =
  let stmt =
    Stmt.If
      ( [
          ( Expr.(Bin (Lt, Var "amtSpent", Var "target")),
            [ Stmt.Update { table = "K"; set = [ ("bid", Expr.int 1) ]; where = None } ] );
        ],
        [ Stmt.Delete { table = "K"; where = None } ] )
  in
  let s = Format.asprintf "%a" Stmt.pp stmt in
  let contains needle =
    let lh = String.length s and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag -> Alcotest.(check bool) ("has " ^ frag) true (contains frag))
    [ "IF"; "THEN"; "UPDATE K"; "ELSE"; "DELETE FROM K"; "ENDIF" ]

let test_value_display () =
  Alcotest.(check string) "null" "NULL" (Value.to_display Value.Null);
  Alcotest.(check string) "int" "42" (Value.to_display (v_int 42));
  Alcotest.(check string) "float" "2.5" (Value.to_display (v_float 2.5));
  Alcotest.(check string) "string quoted" "\"hi\"" (Value.to_display (v_str "hi"))

let test_table_pp_renders () =
  let t = make_kw_table () in
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "mentions table name" true (String.length s > 0);
  Alcotest.(check bool) "has separator row" true (String.contains s '-')

(* Property: Table.update touches exactly the rows matching the predicate. *)
let prop_update_touches_only_matching =
  qtest "update touches exactly matching rows"
    QCheck2.Gen.(list_size (int_bound 50) (int_range 0 100))
    (fun xs ->
      let schema = Schema.make [ { Schema.name = "x"; ty = Value.T_int } ] in
      let t = Table.create ~name:"T" schema in
      List.iter (fun x -> Table.insert t [| v_int x |]) xs;
      let changed =
        Table.update t
          ~where:(fun row -> Value.to_int row.(0) mod 2 = 0)
          ~set:(fun row -> [ ("x", Value.add row.(0) (v_int 1)) ])
      in
      let expected = List.map (fun x -> if x mod 2 = 0 then x + 1 else x) xs in
      let actual = List.map (fun r -> Value.to_int r.(0)) (Table.to_rows t) in
      changed = List.length (List.filter (fun x -> x mod 2 = 0) xs) && actual = expected)

let () =
  Alcotest.run "essa_relalg"
    [
      ( "value",
        [
          Alcotest.test_case "arithmetic" `Quick test_value_arith;
          Alcotest.test_case "null absorbs" `Quick test_value_null_absorbs;
          Alcotest.test_case "type errors" `Quick test_value_type_errors;
          Alcotest.test_case "comparisons" `Quick test_value_comparisons;
          Alcotest.test_case "logic" `Quick test_value_logic;
          Alcotest.test_case "total order" `Quick test_value_total_order;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate;
          Alcotest.test_case "unknown column" `Quick test_schema_unknown_column;
          Alcotest.test_case "check_row" `Quick test_schema_check_row;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/scan" `Quick test_table_insert_and_scan;
          Alcotest.test_case "insert copies" `Quick test_table_insert_copies;
          Alcotest.test_case "update" `Quick test_table_update;
          Alcotest.test_case "update snapshot" `Quick test_table_update_snapshot_semantics;
          Alcotest.test_case "delete" `Quick test_table_delete;
          Alcotest.test_case "update type-checked" `Quick test_table_update_bad_type_rejected;
          Alcotest.test_case "find_first" `Quick test_table_find_first;
          Alcotest.test_case "clear" `Quick test_table_clear;
          prop_update_touches_only_matching;
        ] );
      ( "expr",
        [
          Alcotest.test_case "aggregates" `Quick test_expr_aggregates;
          Alcotest.test_case "aggregates over empty" `Quick test_expr_agg_empty;
          Alcotest.test_case "filtered aggregate" `Quick test_expr_agg_filtered;
          Alcotest.test_case "vars + short-circuit" `Quick test_expr_vars_and_short_circuit;
          Alcotest.test_case "no row scope" `Quick test_expr_no_row_scope;
          Alcotest.test_case "correlated subquery" `Quick test_expr_correlated_subquery;
          Alcotest.test_case "pp renders" `Quick test_expr_pp_renders;
        ] );
      ( "database",
        [
          Alcotest.test_case "update stmt" `Quick test_db_stmt_update;
          Alcotest.test_case "if/elseif" `Quick test_db_stmt_if_elseif;
          Alcotest.test_case "else" `Quick test_db_stmt_else;
          Alcotest.test_case "insert/delete" `Quick test_db_insert_delete;
          Alcotest.test_case "trigger fires" `Quick test_db_trigger_fires;
          Alcotest.test_case "trigger row scope" `Quick test_db_trigger_sees_inserted_row;
          Alcotest.test_case "trigger depth limit" `Quick test_db_trigger_depth_limit;
          Alcotest.test_case "query order_by" `Quick test_db_query_order_by;
          Alcotest.test_case "query where" `Quick test_db_query_where;
          Alcotest.test_case "query order asc" `Quick test_db_query_order_asc;
          Alcotest.test_case "nested aggregate" `Quick test_expr_nested_aggregate;
          Alcotest.test_case "unknown table" `Quick test_db_unknown_table;
          Alcotest.test_case "duplicate table" `Quick test_db_duplicate_table;
          Alcotest.test_case "trigger order" `Quick test_db_triggers_fire_in_registration_order;
          Alcotest.test_case "duplicate trigger" `Quick test_db_duplicate_trigger_rejected;
          Alcotest.test_case "trigger unknown table" `Quick test_db_trigger_on_unknown_table;
          Alcotest.test_case "standalone eval" `Quick test_db_eval_standalone;
          Alcotest.test_case "stmt pp" `Quick test_stmt_pp_renders_sql;
          Alcotest.test_case "value display" `Quick test_value_display;
          Alcotest.test_case "table pp" `Quick test_table_pp_renders;
        ] );
    ]
