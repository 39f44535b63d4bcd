package ir

import (
	"fmt"
	"strings"
)

// String renders the module in a readable textual form, for tests and
// debugging. The format is stable enough for golden tests but is not parsed
// back.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		link := ""
		if g.Internal {
			link = "internal "
		}
		fmt.Fprintf(&sb, "%sglobal @%s : %s x%d", link, g.Name, g.Elem, g.Len)
		if len(g.Init) > 0 {
			sb.WriteString(" = {")
			for i, c := range g.Init {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(c.String())
			}
			sb.WriteString("}")
		}
		sb.WriteString("\n")
	}
	for _, f := range m.Funcs {
		sb.WriteString(f.String())
	}
	return sb.String()
}

func (c Const) String() string {
	if !c.IsAddr {
		return fmt.Sprintf("%d", c.Int)
	}
	if c.Global == nil {
		return "null"
	}
	if c.Off != 0 {
		return fmt.Sprintf("&%s+%d", c.Global.Name, c.Off)
	}
	return "&" + c.Global.Name
}

// String renders one function.
func (f *Func) String() string {
	var sb strings.Builder
	link := ""
	if f.Internal {
		link = "internal "
	}
	if f.External {
		link = "external "
	}
	fmt.Fprintf(&sb, "%sfunc @%s(", link, f.Name)
	for i, p := range f.ParamTys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s", p)
	}
	fmt.Fprintf(&sb, ") %s", f.Ret)
	if f.External {
		sb.WriteString("\n")
		return sb.String()
	}
	sb.WriteString(" {\n")
	for _, b := range f.Blocks {
		preds := make([]string, len(b.Preds))
		for i, p := range b.Preds {
			preds[i] = fmt.Sprintf("b%d", p.ID)
		}
		fmt.Fprintf(&sb, "b%d:", b.ID)
		if len(preds) > 0 {
			fmt.Fprintf(&sb, " ; preds: %s", strings.Join(preds, " "))
		}
		sb.WriteString("\n")
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in.String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	arg := func(i int) string {
		if i >= len(in.Args) || in.Args[i] == nil {
			return "<nil>"
		}
		return fmt.Sprintf("v%d", in.Args[i].ID)
	}
	res := ""
	if in.Typ != nil {
		res = fmt.Sprintf("v%d : %s = ", in.ID, in.Typ)
	}
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%s const %d", res, in.IntVal)
	case OpNull:
		return res + "null"
	case OpGlobalAddr:
		return fmt.Sprintf("%saddr @%s", res, in.Global.Name)
	case OpParam:
		return fmt.Sprintf("%sparam %d", res, in.IntVal)
	case OpPhi:
		parts := make([]string, len(in.Args))
		for i := range in.Args {
			parts[i] = fmt.Sprintf("[%s, b%d]", arg(i), in.Edges[i].ID)
		}
		return res + "phi " + strings.Join(parts, " ")
	case OpBin:
		return fmt.Sprintf("%s%s %s, %s", res, binOpName(in.BinOp), arg(0), arg(1))
	case OpCast:
		return fmt.Sprintf("%scast %s", res, arg(0))
	case OpGEP:
		return fmt.Sprintf("%sgep %s, %s", res, arg(0), arg(1))
	case OpSelect:
		return fmt.Sprintf("%sselect %s, %s, %s", res, arg(0), arg(1), arg(2))
	case OpFreeze:
		return fmt.Sprintf("%sfreeze %s", res, arg(0))
	case OpAlloca:
		return fmt.Sprintf("%salloca x%d", res, in.IntVal)
	case OpLoad:
		return fmt.Sprintf("%sload %s", res, arg(0))
	case OpStore:
		w := ""
		if in.Widened {
			w = ".wide"
		}
		return fmt.Sprintf("store%s %s, %s", w, arg(0), arg(1))
	case OpCall:
		args := make([]string, len(in.Args))
		for i := range in.Args {
			args[i] = arg(i)
		}
		callee := "<nil>"
		if in.Callee != nil {
			callee = in.Callee.Name
		}
		if in.Typ != nil {
			return fmt.Sprintf("%scall @%s(%s)", res, callee, strings.Join(args, ", "))
		}
		return fmt.Sprintf("call @%s(%s)", callee, strings.Join(args, ", "))
	case OpRet:
		if len(in.Args) > 0 {
			return "ret " + arg(0)
		}
		return "ret"
	case OpBr:
		return fmt.Sprintf("br b%d", in.Edges[0].ID)
	case OpCondBr:
		return fmt.Sprintf("condbr %s, b%d, b%d", arg(0), in.Edges[0].ID, in.Edges[1].ID)
	}
	return res + in.Op.String()
}

func binOpName(k fmt.Stringer) string {
	s := k.String()
	names := map[string]string{
		"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
		"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
		"==": "eq", "!=": "ne", "<": "lt", ">": "gt", "<=": "le", ">=": "ge",
	}
	if n, ok := names[s]; ok {
		return n
	}
	return s
}
